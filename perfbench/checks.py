"""Output checks for every benchmark command, against independent references.

`Checker.check(argv, text)` parses the stdout of one `cayleylab` command,
compares it with a reference computed here (never by the code path that
produced it) and returns the largest relative deviation of any reported norm,
mean or bound from its reference. It raises CheckFailed when the output is
malformed or outside tolerance.

References:
  - group orders from the family formulas;
  - irrep degrees: all ones for abelian families (the class-constant oracle
    takes 30 s at cyclic:256), `dixon_oracle` for other groups of order
    <= 400, and textbook character degrees above that (PSL(2, p) formula,
    the A7 table);
  - sigma = sqrt(n), v = sqrt(2n), w = sqrt(n); m(G) by a two-stage fine grid
    over [0, f(0)], which must contain the minimizer since f(s) >= s;
  - direct estimates: dense SVD of the same seeded draws, redrawn here;
  - block estimates: frozen Monte Carlo references (reference.json, made by
    make_reference.py), within Z_MAX combined standard errors;
  - colorings: dense SVD of the returned signs.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

import cayleylab

DIRECT_RTOL = 2e-3      # power iteration stops on a 1e-6 relative change; single
                        # norms were measured up to 4e-4 low (alt:5 direct_real)
EXACT_RTOL = 1e-12      # closed forms
W_RTOL = 1e-8           # w-certificate: power iteration at tol 1e-12
NORM_RTOL = 1e-9        # coloring norms: dense SVD either side
M_RTOL = 1e-9           # m(G) against the refined grid
Z_MAX = 5.0             # block estimates: combined standard errors
SE_RATIO = (0.8, 1.25)  # block std_error against sd_ref / sqrt(trials)

# Textbook degree multisets for the groups above the class-constant oracle's
# order cap. PSL(2, q), q odd: 1, q, (q+1) x (q-5)/4 or (q-3)/4, (q-1) x
# (q-1)/4 or (q-3)/4, and two of (q+1)/2 or (q-1)/2 for q = 1 or 3 mod 4.
_A7_DEGREES = [1, 6, 10, 10, 14, 14, 15, 21, 35]
_ORACLE_CAP = 400

SPENCER_METHODS = {"local": "local_search", "random": "random_best_of_k",
                   "brute": "brute_force", "abelian": "abelian_reduction"}
SWEEP_HEADER = "group,n,mean,std_error,m,ratio_sqrt_n,ratio_sqrt_nlogn"


class CheckFailed(Exception):
    """A command's output disagrees with its reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rel(value: float, ref: float) -> float:
    return abs(float(value) - ref) / max(abs(ref), 1e-300)


def group_order(spec: str) -> int:
    fam, arg = spec.split(":")
    if fam == "cyclic":
        return int(arg)
    if fam == "abelian":
        return math.prod(int(f) for f in arg.split("x"))
    if fam == "dihedral":
        return 2 * int(arg)
    if fam == "sym":
        return math.factorial(int(arg))
    if fam == "alt":
        return math.factorial(int(arg)) // 2
    p = int(arg)
    return p * (p * p - 1) // 2


def psl2_degrees(q: int) -> list:
    if q % 4 == 1:
        return sorted([1, q] + [q + 1] * ((q - 5) // 4) + [q - 1] * ((q - 1) // 4)
                      + [(q + 1) // 2] * 2)
    return sorted([1, q] + [q + 1] * ((q - 3) // 4) + [q - 1] * ((q - 3) // 4)
                  + [(q - 1) // 2] * 2)


def m_functional(degrees, s):
    d, counts = np.unique(np.asarray(degrees, dtype=float), return_counts=True)
    s = np.asarray(s, dtype=float)
    return s + np.exp(-np.multiply.outer(s * s / 2.0, d)) @ (counts / np.sqrt(d))


def m_grid(degrees) -> float:
    """min_{s>=0} f(s): a 2e5-point grid over [0, f(0)], then a 2e5-point grid
    across the two cells around every local minimum of the first."""
    hi = float(m_functional(degrees, 0.0))
    grid = np.linspace(0.0, hi, 200_001)
    vals = m_functional(degrees, grid)
    h = grid[1] - grid[0]
    interior = np.flatnonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])) + 1
    best = float(min(vals[0], vals[-1]))
    for i in interior:
        fine = np.linspace(max(grid[i] - h, 0.0), grid[i] + h, 200_001)
        best = min(best, float(m_functional(degrees, fine).min()))
    return best


def _load_reference() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["expected_norm"]


def argv_options(argv) -> dict:
    """{"method": "block", ...} from a CLI argv."""
    return {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1)
            if argv[i].startswith("--")}


class Checker:
    """Caches per-group references across the commands of one run."""

    def __init__(self):
        self._groups = {}
        self._degrees = {}
        self._m = {}
        self.expected_norm = _load_reference()

    def group(self, spec: str):
        if spec not in self._groups:
            G = cayleylab.make_group(spec)
            _require(np.array_equal(G.table[0], np.arange(G.n)),
                     f"{spec}: element 0 is not the identity")
            self._groups[spec] = G
        return self._groups[spec]

    def div_index(self, spec: str) -> np.ndarray:
        table = self.group(spec).table
        inverse = np.argmax(table == 0, axis=1)
        return table[:, inverse]

    def degrees(self, spec: str) -> list:
        if spec not in self._degrees:
            fam, arg = spec.split(":")
            n = group_order(spec)
            if fam in ("cyclic", "abelian"):
                degs = [1] * n
            elif n <= _ORACLE_CAP:
                degs = cayleylab.dixon_oracle(self.group(spec)).degrees
            elif fam == "psl2":
                degs = psl2_degrees(int(arg))
            elif spec == "alt:7":
                degs = list(_A7_DEGREES)
            else:
                raise CheckFailed(f"no degree reference for {spec}")
            self._degrees[spec] = sorted(degs)
        return self._degrees[spec]

    def m_of(self, spec: str) -> float:
        if spec not in self._m:
            self._m[spec] = m_grid(self.degrees(spec))
        return self._m[spec]

    # ------------------------------------------------------------ dispatch

    def check(self, argv, text: str) -> float:
        cmd = argv[0]
        opts = argv_options(argv)
        try:
            if cmd == "group-info":
                return self.group_info(argv[1], text)
            if cmd == "bounds":
                return self.bounds(argv[1], text)
            if cmd == "estimate":
                return self.estimate(argv[1], opts["method"], int(opts["trials"]),
                                     int(opts["seed"]), text)
            if cmd == "theorem1-sweep":
                return self.sweep(opts["family"], opts["sizes"], int(opts["trials"]), text)
            if cmd == "spencer":
                return self.spencer(argv[1], opts["method"], int(opts["seed"]), text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise CheckFailed(f"malformed output: {exc!r}") from None
        raise CheckFailed(f"no check for command {cmd!r}")

    @staticmethod
    def _json(text: str, keys) -> dict:
        _require(text.endswith("\n") and text.count("\n") == 1,
                 "output must be one JSON line")
        doc = json.loads(text)
        _require(sorted(doc) == sorted(keys), f"unexpected keys {sorted(doc)}")
        return doc

    def group_info(self, spec: str, text: str) -> float:
        doc = self._json(text, ["class_sizes", "degrees", "degrees_below_2log_n",
                                "degrees_below_log_n", "group", "n_classes",
                                "n_linear", "order", "sum_degree_squares"])
        n = group_order(spec)
        ref = self.degrees(spec)
        _require(doc["group"] == spec, f"group {doc['group']!r} != {spec!r}")
        _require(doc["order"] == n, f"order {doc['order']} != {n}")
        _require(doc["degrees"] == ref, f"degrees differ from reference for {spec}")
        sizes = doc["class_sizes"]
        _require(len(sizes) == doc["n_classes"] == len(ref), "class count != irrep count")
        _require(sum(sizes) == n and sizes[0] == 1 and all(n % s == 0 for s in sizes),
                 "class sizes do not partition the group")
        logn = math.log(n) if n > 1 else 0.0
        _require(doc["n_linear"] == ref.count(1), "n_linear wrong")
        _require(doc["sum_degree_squares"] == n, "sum of squared degrees != n")
        _require(doc["degrees_below_log_n"] == sum(d < logn for d in ref)
                 and doc["degrees_below_2log_n"] == sum(d < 2 * logn for d in ref),
                 "degree counts below log n wrong")
        return 0.0

    def bounds(self, spec: str, text: str) -> float:
        doc = self._json(text, ["group", "m_of_g", "n", "nck_lower", "nck_upper",
                                "s_star", "sigma", "v", "w_certificate"])
        n = group_order(spec)
        _require(doc["group"] == spec and doc["n"] == n, "group or order wrong")
        root = math.sqrt(n)
        errs = {"sigma": _rel(doc["sigma"], root),
                "v": _rel(doc["v"], math.sqrt(2.0 * n)),
                "nck_lower": _rel(doc["nck_lower"], root),
                "nck_upper": _rel(doc["nck_upper"], root * math.sqrt(math.log(2.0 * n)))}
        for key, err in errs.items():
            _require(err <= EXACT_RTOL, f"{key} off by {err:.3e}")
        w_err = _rel(doc["w_certificate"], root)
        _require(w_err <= W_RTOL, f"w_certificate off by {w_err:.3e}")
        m_ref = self.m_of(spec)
        m = doc["m_of_g"]
        m_err = _rel(m, m_ref)
        _require(m <= m_ref * (1 + EXACT_RTOL) and m_err <= M_RTOL,
                 f"m(G) = {m!r} against grid {m_ref!r}")
        f_star = float(m_functional(self.degrees(spec), doc["s_star"]))
        _require(_rel(f_star, m) <= M_RTOL, "f(s_star) != m(G)")
        return max(list(errs.values()) + [w_err, m_err])

    def estimate(self, spec: str, method: str, trials: int, seed: int,
                 text: str) -> float:
        doc = self._json(text, ["group", "mean", "method", "seed", "std_error", "trials"])
        _require(doc["group"] == spec and doc["method"] == method
                 and doc["seed"] == seed and doc["trials"] == trials,
                 "estimate does not echo its arguments")
        if method == "block":
            self._expected_norm(spec, trials, doc["mean"], doc["std_error"])
            return 0.0
        ref = self.direct_norms(spec, method == "direct_complex", seed, trials)
        err = _rel(doc["mean"], float(ref.mean()))
        _require(err <= DIRECT_RTOL, f"mean off the dense-SVD reference by {err:.3e}")
        se_ref = float(ref.std(ddof=1) / math.sqrt(trials))
        # per-trial errors of at most DIRECT_RTOL * max(ref) move the sample
        # standard deviation by at most that much
        se_tol = DIRECT_RTOL * float(ref.max()) / math.sqrt(trials - 1)
        _require(abs(doc["std_error"] - se_ref) <= se_tol,
                 f"std_error {doc['std_error']!r} against {se_ref!r}")
        return err

    def direct_norms(self, spec: str, complex_draw: bool, seed: int,
                     trials: int) -> np.ndarray:
        """Dense-SVD norms of the estimate's own draws: trial t reads from
        Philox keyed by SeedSequence((seed, t)), real part first."""
        div = self.div_index(spec)
        n = div.shape[0]
        out = np.empty(trials)
        for t in range(trials):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, t))))
            x = rng.standard_normal(n)
            if complex_draw:
                x = x + 1j * rng.standard_normal(n)
            out[t] = np.linalg.svd(x[div], compute_uv=False)[0]
        return out

    def _expected_norm(self, spec: str, trials: int, mean: float, se: float) -> None:
        ref = self.expected_norm[spec]
        z = abs(mean - ref["mean"]) / math.hypot(se, ref["std_error"])
        _require(z <= Z_MAX, f"{spec} block mean {mean!r} is {z:.1f} SE from {ref['mean']!r}")
        ratio = se / (ref["sd"] / math.sqrt(trials))
        _require(SE_RATIO[0] <= ratio <= SE_RATIO[1],
                 f"{spec} block std_error {se!r} is {ratio:.2f}x the reference")

    def sweep(self, family: str, sizes: str, trials: int, text: str) -> float:
        _require(family == "cyclic_powers", f"no sweep reference for {family}")
        lines = text.split("\n")
        specs = [f"cyclic:{s}" for s in sorted(int(s) for s in sizes.split(","))]
        _require(lines[0] == SWEEP_HEADER and lines[-1] == ""
                 and len(lines) == len(specs) + 2, "sweep CSV shape wrong")
        worst = 0.0
        for spec, line in zip(specs, lines[1:-1]):
            group, n, mean, se, m, r1, r2 = line.split(",")
            n, mean, se, m = int(n), float(mean), float(se), float(m)
            _require(group == spec and n == group_order(spec), f"row {line!r} wrong group")
            self._expected_norm(spec, trials, mean, se)
            m_ref = self.m_of(spec)
            m_err = _rel(m, m_ref)
            _require(m <= m_ref * (1 + EXACT_RTOL) and m_err <= M_RTOL, f"{spec} m wrong")
            _require(_rel(float(r1), mean / math.sqrt(n)) <= EXACT_RTOL
                     and _rel(float(r2), mean / math.sqrt(n * math.log(n))) <= EXACT_RTOL,
                     f"{spec} ratio columns disagree with the mean")
            worst = max(worst, m_err)
        return worst

    def spencer(self, spec: str, method: str, seed: int, text: str) -> float:
        doc = self._json(text, ["group", "method", "norm", "ratio", "seed", "signs"])
        n = group_order(spec)
        _require(doc["group"] == spec and doc["method"] == SPENCER_METHODS[method],
                 "group or method wrong")
        _require(doc["seed"] == (None if method == "brute" else seed), "seed not echoed")
        signs = np.asarray(doc["signs"], dtype=float)
        _require(signs.shape == (n,) and np.all(np.abs(signs) == 1), "signs are not +-1")
        _require(signs[0] == 1, "identity sign is not +1")
        ref = float(np.linalg.svd(signs[self.div_index(spec)], compute_uv=False)[0])
        err = _rel(doc["norm"], ref)
        _require(err <= NORM_RTOL, f"norm {doc['norm']!r} against dense SVD {ref!r}")
        _require(_rel(doc["ratio"], doc["norm"] / math.sqrt(n)) <= EXACT_RTOL,
                 "ratio != norm / sqrt(n)")
        return err

"""Traced in-process replay of benchmark commands.

`replay(argv, tracer)` recomputes one `cayleylab` CLI command by calling each
module's public functions in the order the CLI does, wrapping every call in a
span named `<module>.<stage>`, and returns the bytes the CLI would print. The
benchmark compares those bytes with the CLI's, so the per-layer numbers
describe the same program. Probes that split a layer further (draw /
transform / norm, substream cost, one coloring norm) run after the replay
under their own root span and are not part of the replay's wall time.

Spans stay in memory (name, start, end, parent, command id) until the
benchmark writes them out at the end of the run.
"""
from __future__ import annotations

import collections
import contextlib
import json
import time

import numpy as np

import cayleylab as cl
from cayleylab.cli import SWEEP_CSV_HEADER, _derived_seed

from checks import argv_options

RNG_PROBE_CALLS = 1000
SPLIT_PROBE_TRIALS = 2


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.failed = collections.Counter()
        self.norm_probes = []  # (group order, seconds) of single coloring norms
        self.command = None
        self._stack = []
        self._last_exc = None

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "command": self.command}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        except Exception as exc:
            if exc is not self._last_exc:  # count a failure in the layer that raised it
                self._last_exc = exc
                self.failed[name.split(".")[0]] += 1
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


def _group(tr: Tracer, spec: str):
    with tr.span("groups.build"):
        G = cl.parse_group_spec(spec)
    with tr.span("groups.validate"):
        cl.validate(G)
    return G


def _classes(tr: Tracer, G) -> None:
    with tr.span("groups.classes"):
        G.classes


def _spectrum(tr: Tracer, G, seed: int):
    tr.counts["regular.degrees_calls"] += 1
    tr.counts["regular.eig_flops"] += G.n ** 3
    with tr.span("regular.degrees"):
        return cl.load_or_compute_spectrum(G, seed)


def _group_info(tr, spec, seed):
    G = _group(tr, spec)
    _classes(tr, G)
    degrees = _spectrum(tr, G, seed).degrees
    logn = np.log(G.n) if G.n > 1 else 0.0
    doc = {
        "class_sizes": G.classes.sizes,
        "degrees": degrees,
        "degrees_below_2log_n": int(sum(d < 2 * logn for d in degrees)),
        "degrees_below_log_n": int(sum(d < logn for d in degrees)),
        "group": G.name,
        "n_classes": len(G.classes.classes),
        "n_linear": int(sum(d == 1 for d in degrees)),
        "order": G.n,
        "sum_degree_squares": int(sum(d * d for d in degrees)),
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _bounds(tr, spec, seed):
    G = _group(tr, spec)
    _classes(tr, G)
    spectrum = _spectrum(tr, G, seed)
    n = G.n
    sigma = float(np.sqrt(n))
    with tr.span("bounds.w_certificate"):
        w_cert = cl.w_certificate(G)
    with tr.span("bounds.m"):
        m, s_star = cl.m_of_group(spectrum)
    if w_cert > sigma * (1 + 1e-12):
        raise cl.CayleyLabError(f"{G.name}: w certificate exceeds sigma")
    if not (np.exp(-0.5) - 1e-12 <= m <= np.sqrt(2.0 * np.log(n)) + 1 + 1e-12):
        raise cl.CayleyLabError(f"{G.name}: m = {m} escapes its proof bounds")
    rep = cl.BoundsReport(group=G.name, n=n, sigma=sigma, v=float(np.sqrt(2.0 * n)),
                          w_certificate=w_cert, m_of_g=m, s_star=s_star,
                          nck_lower=sigma,
                          nck_upper=float(sigma * np.sqrt(np.log(2.0 * n))))
    return rep.to_json() + "\n"


def _split_probe(tr, series, seed, trials, complex_draw):
    """Draw, gather and norm of the estimate's first draws, timed apart; the
    gathered matrix must equal `sample_cayley` on the same substream."""
    n = series.group.n
    for t in range(min(trials, SPLIT_PROBE_TRIALS)):
        with tr.span("sampling.draw"):
            rng = cl.substream_rng(seed, t)
            x = rng.standard_normal(n)
            if complex_draw:
                x = x + 1j * rng.standard_normal(n)
        with tr.span("sampling.transform"):
            m = x[series.rep.div_table]
        with tr.span("sampling.norm"):
            cl.spectral_norm(m)
        if not np.array_equal(m, cl.sample_cayley(series, cl.substream_rng(seed, t))):
            raise RuntimeError("draw split disagrees with sample_cayley")


def _rng_probe(tr, seed):
    tr.counts["rng.substream_calls"] += RNG_PROBE_CALLS
    with tr.span("rng.substream"):
        for t in range(RNG_PROBE_CALLS):
            cl.substream_rng(seed, t)


def _estimate(tr, spec, opts, probes):
    trials, method, seed = int(opts["trials"]), opts["method"], int(opts["seed"])
    G = _group(tr, spec)
    spectrum = None
    if method == "direct_real":
        series = cl.GaussianSeries.real_cayley(G)
    else:
        series = cl.GaussianSeries.complex_cayley(G)
        if method == "block":
            _classes(tr, G)
            spectrum = _spectrum(tr, G, 0)
    kind = "block" if method == "block" else "direct"
    tr.counts[f"sampling.{kind}_trials"] += trials
    with tr.span(f"sampling.{kind}"):
        est = cl.estimate_expected_norm(series, trials, method, seed, spectrum=spectrum)
    if kind == "direct":
        probes.append(lambda: _split_probe(tr, series, seed, trials,
                                           method == "direct_complex"))
    else:
        probes.append(lambda: _rng_probe(tr, seed))
    return est.to_json() + "\n"


def _sweep(tr, opts, probes):
    sizes = [int(s) for s in opts["sizes"].split(",") if s]
    trials, seed = int(opts["trials"]), int(opts["seed"])
    prefix = "cyclic" if opts["family"] == "cyclic_powers" else "alt"
    built = [_group(tr, f"{prefix}:{s}") for s in sizes]
    if any(g.n < 2 for g in built):
        raise cl.GroupError("sweep needs group order >= 2 (log-normalized ratios)")
    built.sort(key=lambda g: g.n)
    lines = [SWEEP_CSV_HEADER]
    for idx, G in enumerate(built):
        _classes(tr, G)
        spectrum = _spectrum(tr, G, 0)
        series = cl.GaussianSeries.complex_cayley(G)
        tr.counts["sampling.block_trials"] += trials
        with tr.span("sampling.block"):
            est = cl.estimate_expected_norm(series, trials, "block",
                                            _derived_seed(seed, idx), spectrum=spectrum)
        with tr.span("bounds.m"):
            m, _ = cl.m_of_group(spectrum)
        n = G.n
        row = [est.mean, est.std_error, m, est.mean / np.sqrt(n),
               est.mean / np.sqrt(n * np.log(n))]
        lines.append(",".join([G.name, str(n)] + [repr(float(v)) for v in row]))
    probes.append(lambda: _rng_probe(tr, seed))
    return "\n".join(lines) + "\n"


def _spencer(tr, spec, opts, probes):
    method, budget, seed = opts["method"], int(opts.get("budget", 50)), int(opts["seed"])
    G = _group(tr, spec)
    if method == "brute":
        with tr.span("spencer.brute"):
            col = cl.brute_force(G)
    elif method == "random":
        with tr.span("spencer.random"):
            col = cl.random_best_of_k(G, budget, seed)
    elif method == "local":
        with tr.span("spencer.random"):
            init = cl.random_best_of_k(G, budget, seed)
        with tr.span("spencer.local"):
            col = cl.local_search(G, init, seed)
        tr.counts["spencer.flips_accepted"] += int(np.sum(col.signs != init.signs))
    else:
        _classes(tr, G)
        with tr.span("spencer.abelian"):
            col = cl.abelian_reduction(G, seed, restarts=budget)

    def norm_probe():
        t0 = time.perf_counter()
        with tr.span("spencer.coloring_norm"):
            cl.coloring_norm(G, col.signs)
        tr.norm_probes.append((G.n, time.perf_counter() - t0))

    probes.append(norm_probe)
    return col.to_json() + "\n"


def replay(argv, tr: Tracer) -> tuple:
    """(stdout text, probes) for one command; `probes` are callables that
    time finer splits of the layers the command used."""
    cmd, opts, probes = argv[0], argv_options(argv), []
    with tr.span(f"cli.{cmd}"):
        if cmd == "group-info":
            text = _group_info(tr, argv[1], int(opts["seed"]))
        elif cmd == "bounds":
            text = _bounds(tr, argv[1], int(opts["seed"]))
        elif cmd == "estimate":
            text = _estimate(tr, argv[1], opts, probes)
        elif cmd == "theorem1-sweep":
            text = _sweep(tr, opts, probes)
        elif cmd == "spencer":
            text = _spencer(tr, argv[1], opts, probes)
        else:
            raise ValueError(f"no replay for command {cmd!r}")
    return text, probes

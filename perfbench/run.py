"""cayleylab benchmark: CLI wall time, memory and correctness on three
workloads, plus a traced per-module replay.

Run from the repository root:

    python3 perfbench/run.py --workload structure --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of `cayleylab` CLI commands. A pass runs the
list once, each command as a fresh process, one at a time: a closed loop with
one client and no concurrency. Every `--seed` handed to a command is derived
from (workload seed, pass, command index), so the same workload seed gives
the same inputs. Commands repeat in list order until `--seconds` is about
used up, after at least one whole pass; the last pass may stop part way.
Every output is checked against an independent reference (checks.py); a
command fails if it exits non-zero, times out or fails its check.

--trace 0 reports the end-to-end metrics:
  wall_s       wall time of one pass, counting interpreter start and imports:
               the sum over the workload's commands of each command's median
               wall time over the run, so a burst of host contention or a
               seed with a long descent moves it little
  setup_s      median over SETUP_REPEATS fresh processes that import cayleylab
               and run make_group on every distinct group of the workload
  peak_rss_mb  largest peak RSS of any command process (its own rusage)
It also prints error_rate, max_rel_err and, on `spencer`, discrepancy_ratio.

--trace 1 runs each command in process twice, through `cayleylab.cli.main`
and through the traced replay (replay.py), requires identical bytes, and
reports the per-layer metrics, medians over passes.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
Per-command records, provenance and spans go to .perfbench_out/.

Seeds 1 to 10 were used while writing the benchmark; seed 104729 is held out
for checking a claim on data not used while writing a change.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Why each workload, and which ROADMAP item it is the before/after for:
WORKLOADS = {
    # Group build, conjugacy classes, the dense degree eigensolve (about half
    # the wall) and bounds, plus six interpreter starts (about a third).
    # No Gaussian draws, no descent. Items 2 and 3. alt:7 stands in for
    # sym:7, whose 37 s eigensolve is too long to repeat.
    "structure": [
        ["group-info", "cyclic:8"],
        ["bounds", "abelian:6x6x10"],
        ["group-info", "psl2:11"],
        ["bounds", "psl2:13"],
        ["group-info", "cyclic:1024"],
        ["bounds", "alt:7"],
    ],
    # Per-trial draw, transform and norm through both direct power-iteration
    # paths and the block sampler; degrees only at orders <= 256. Item 4.
    # The direct complex estimate runs on psl2:11, not psl2:13: power
    # iteration length depends on the draw, and the few psl2:13 trials a run
    # can check (0.8 s of dense SVD each) left that one command spreading
    # 0.44 between runs.
    "sampling": [
        ["estimate", "psl2:11", "--method", "direct_complex", "--trials", "8"],
        ["estimate", "alt:5", "--method", "direct_real", "--trials", "500"],
        ["estimate", "psl2:7", "--method", "block", "--trials", "5000"],
        ["theorem1-sweep", "--family", "cyclic_powers", "--sizes", "16,64,256",
         "--trials", "1000"],
    ],
    # Cost of each candidate flip in descent, on sign matrices with clustered
    # top singular values; local and abelian on one group show a change that
    # helps one search path and costs the other. Item 5. Descent length
    # depends on the seed (2 to 4 passes), so groups are kept small enough
    # to average several passes within one run.
    "spencer": [
        ["spencer", "psl2:7", "--method", "local", "--budget", "5"],
        ["spencer", "cyclic:128", "--method", "local", "--budget", "5"],
        ["spencer", "cyclic:128", "--method", "abelian", "--budget", "20"],
        ["spencer", "cyclic:16", "--method", "brute"],
        ["spencer", "alt:5", "--method", "random", "--budget", "500"],
    ],
}

SETUP_REPEATS = 3
IMPORT_REPEATS = 5
CMD_TIMEOUT_S = 100.0
DEADLINE_S = 150.0  # no command starts after this; the run must end within 180 s
T_PROGRAM = time.perf_counter()

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "groups.build_s": "s", "groups.validate_s": "s", "groups.classes_s": "s",
    "regular.degrees_s": "s", "regular.degrees_calls": "count",
    "regular.eig_flops": "flop",
    "bounds.w_certificate_s": "s", "bounds.m_s": "s",
    "sampling.direct_ms_per_trial": "ms", "sampling.block_us_per_trial": "us",
    "sampling.trials": "count",
    "sampling.draw_s": "s", "sampling.transform_s": "s", "sampling.norm_s": "s",
    "rng.substream_us": "us",
    "spencer.local_s": "s", "spencer.abelian_s": "s", "spencer.brute_s": "s",
    "spencer.random_s": "s", "spencer.norm_ms": "ms",
    "spencer.flips_accepted": "count",
    "groups.failed": "count", "regular.failed": "count", "bounds.failed": "count",
    "sampling.failed": "count", "spencer.failed": "count",
    "trace.overhead_ratio": "ratio", "trace.bytes_mismatch": "count",
    "check.max_rel_err": "ratio", "spencer.discrepancy_ratio": "ratio",
}


def derive_seed(workload_seed: int, pass_idx: int, cmd_idx: int) -> int:
    seq = np.random.SeedSequence((workload_seed, pass_idx, cmd_idx))
    return int(seq.generate_state(1)[0] % 2**31)


def command_argv(workload: str, workload_seed: int, pass_idx: int, cmd_idx: int) -> list:
    return WORKLOADS[workload][cmd_idx] + [
        "--seed", str(derive_seed(workload_seed, pass_idx, cmd_idx))]


def pass_argvs(workload: str, workload_seed: int, pass_idx: int) -> list:
    return [command_argv(workload, workload_seed, pass_idx, i)
            for i in range(len(WORKLOADS[workload]))]


def workload_groups(workload: str) -> list:
    specs = []
    for argv in WORKLOADS[workload]:
        if argv[0] == "theorem1-sweep":
            specs += [f"cyclic:{s}" for s in argv[argv.index("--sizes") + 1].split(",")]
        else:
            specs.append(argv[1])
    return list(dict.fromkeys(specs))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # degrees are computed on every run, and the default kernel is used
    env.pop("CAYLEYLAB_CACHE_DIR", None)
    env.pop("CAYLEYLAB_BACKEND", None)
    return env


def host_steal_s() -> float:
    """CPU time the hypervisor withheld from this machine, over all CPUs."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_process(args, env, timeout: float) -> dict:
    """Run one child to completion; wall time, exit code, stdout and its own
    peak RSS and CPU time from wait4, plus the host steal time meanwhile.
    The child is killed after `timeout` seconds."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        steal0 = host_steal_s()
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        steal = host_steal_s() - steal0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"wall_s": wall, "exit": proc.returncode,
                "timed_out": proc.returncode < 0 and wall >= timeout,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
                "cpu_s": usage.ru_utime + usage.ru_stime, "host_steal_s": steal,
                "stdout": out.read().decode("utf-8", "replace"),
                "stderr_tail": err.read().decode("utf-8", "replace")[-2000:]}


# ------------------------------------------------------------ provenance

def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def _importable(name: str) -> bool:
    try:
        __import__(name)
    except Exception:  # any import-time failure means "not usable"
        return False
    return True


def provenance() -> dict:
    sources = sorted((SRC / "cayleylab").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    mem_kb = None
    with contextlib.suppress(OSError):
        with open("/proc/meminfo", encoding="utf-8") as fh:
            mem_kb = next(int(l.split()[1]) for l in fh if l.startswith("MemTotal:"))
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": None if mem_kb is None else mem_kb / 1024.0,
        "scipy_importable": _importable("scipy"),
        "numba_importable": _importable("numba"),
    }


# ------------------------------------------------------------- end to end

def measure_setup(workload: str, env) -> list:
    code = ("import cayleylab\n"
            f"for spec in {workload_groups(workload)!r}:\n"
            "    cayleylab.make_group(spec)\n")
    walls = []
    for _ in range(SETUP_REPEATS):
        rec = run_process([sys.executable, "-c", code], env, CMD_TIMEOUT_S)
        if rec["exit"] != 0:
            raise RuntimeError(f"set-up process failed: {rec['stderr_tail']}")
        walls.append(rec["wall_s"])
    return walls


def check_record(checker, argv, rec: dict, text: str) -> None:
    from checks import CheckFailed
    try:
        rec["rel_err"] = checker.check(argv, text)
    except CheckFailed as exc:
        rec["error"] = f"check: {exc}"
        return
    if argv[0] == "spencer":
        rec["ratio"] = json.loads(text)["ratio"]


def remaining_s() -> float:
    return DEADLINE_S - (time.perf_counter() - T_PROGRAM)


def run_passes(seconds, one_pass) -> list:
    """Call one_pass(pass_idx) until the window is used: another pass starts
    only if it is expected to end within `seconds`."""
    t_start = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(one_pass(len(passes)))
        last = time.perf_counter() - t0
        if time.perf_counter() - t_start + last > seconds or last > remaining_s():
            return passes


def run_command(argv, p, checker, env) -> dict:
    rec = {"pass": p, "argv": argv}
    rec.update(run_process([sys.executable, "-m", "cayleylab.cli", *argv], env,
                           min(CMD_TIMEOUT_S, remaining_s())))
    if rec["timed_out"]:
        rec["error"] = "timeout"
    elif rec["exit"] != 0:
        last_line = (rec["stderr_tail"].strip().splitlines() or [""])[-1]
        rec["error"] = f"exit {rec['exit']}: {last_line[:200]}"
    else:
        check_record(checker, argv, rec, rec["stdout"])
    return rec


def end_to_end(workload, seed, seconds, checker, env):
    setup = measure_setup(workload, env)
    n_cmds = len(WORKLOADS[workload])
    records = []
    cost = {}  # command index -> wall plus check time of its last run
    t_start = time.perf_counter()
    for k in itertools.count():
        p, i = divmod(k, n_cmds)
        # after one whole pass, a command starts only if it is expected to
        # end within `seconds`
        if p > 0 and time.perf_counter() - t_start + cost[i] > seconds:
            break
        if remaining_s() <= 0:
            break
        t0 = time.perf_counter()
        records.append(run_command(command_argv(workload, seed, p, i), p, checker, env))
        cost[i] = time.perf_counter() - t0

    by_cmd = [[r for r in records if r["argv"][:-2] == base] for base in WORKLOADS[workload]]
    metrics = {
        "wall_s": sum(statistics.median(r["wall_s"] for r in runs) for runs in by_cmd if runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    extra = {"setup_walls_s": setup,
             **{f"command_{key}": [[r[key] for r in runs] for runs in by_cmd]
                for key in ("wall_s", "cpu_s", "host_steal_s")}}
    return metrics, extra, records


# --------------------------------------------------------------- traced

def measure_import(env) -> list:
    code = ("import time\nt0 = time.perf_counter()\nimport cayleylab\n"
            "print(repr(time.perf_counter() - t0))\n")
    out = []
    for _ in range(IMPORT_REPEATS):
        rec = run_process([sys.executable, "-c", code], env, CMD_TIMEOUT_S)
        if rec["exit"] != 0:
            raise RuntimeError(f"import probe failed: {rec['stderr_tail']}")
        out.append(float(rec["stdout"]))
    return out


def _cli_in_process(argv) -> tuple:
    from cayleylab.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"cli.main returned {code}")
    return buf.getvalue(), []


def traced(workload, seed, seconds, checker, env):
    from replay import Tracer, replay
    import_s = measure_import(env)
    tracers = []

    def one_pass(p):
        tr = Tracer()
        tracers.append(tr)
        records = []
        for i, argv in enumerate(pass_argvs(workload, seed, p)):
            if remaining_s() <= 0:
                break
            tr.command = f"{p}.{i}"
            rec = {"pass": p, "argv": argv}
            records.append(rec)
            sides = {"cli": lambda: _cli_in_process(argv), "trace": lambda: replay(argv, tr)}
            out = {}
            # alternate which side runs first, so warm caches favour neither
            for side in (("cli", "trace") if (p + i) % 2 == 0 else ("trace", "cli")):
                t0 = time.perf_counter()
                try:
                    out[side] = sides[side]()
                except Exception as exc:  # a failing command is counted, the run goes on
                    out[side] = exc
                rec[f"{side}_s"] = time.perf_counter() - t0
            errors = [f"{side}: {type(v).__name__}: {v}" for side, v in out.items()
                      if isinstance(v, Exception)]
            if errors:
                rec["error"] = "; ".join(errors)[:400]
                continue
            (cli_text, _), (trace_text, probes) = out["cli"], out["trace"]
            rec["bytes_match"] = cli_text == trace_text
            if not rec["bytes_match"]:
                rec["error"] = "replay bytes differ from the CLI"
                continue
            try:
                with tr.span("probe"):
                    for probe in probes:
                        probe()
            except Exception as exc:  # a failing probe is counted, the run goes on
                rec["error"] = f"probe: {type(exc).__name__}: {exc}"
                continue
            check_record(checker, argv, rec, trace_text)
        return records

    passes = run_passes(seconds, one_pass)
    per_pass = [layer_metrics(tr, recs) for tr, recs in zip(tracers, passes)]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics["cli.import_s"] = statistics.median(import_s)
    metrics = {name: metrics[name] for name in PER_LAYER_UNITS}
    return metrics, {"import_s": import_s, "per_pass": per_pass}, \
        [r for p in passes for r in p], tracers


def layer_metrics(tr, records) -> dict:
    c = tr.counts
    direct, block = c["sampling.direct_trials"], c["sampling.block_trials"]
    top_n = max((n for n, _ in tr.norm_probes), default=None)
    norm_times = [s for n, s in tr.norm_probes if n == top_n]
    both = [r for r in records if "bytes_match" in r]
    untraced = sum(r["cli_s"] for r in both)
    traced_s = sum(r["trace_s"] for r in both)
    ratios = [r["ratio"] for r in records if "ratio" in r]
    return {
        "groups.build_s": tr.total("groups.build"),
        "groups.validate_s": tr.total("groups.validate"),
        "groups.classes_s": tr.total("groups.classes"),
        "regular.degrees_s": tr.total("regular.degrees"),
        "regular.degrees_calls": c["regular.degrees_calls"],
        "regular.eig_flops": c["regular.eig_flops"],
        "bounds.w_certificate_s": tr.total("bounds.w_certificate"),
        "bounds.m_s": tr.total("bounds.m"),
        "sampling.direct_ms_per_trial":
            1e3 * tr.total("sampling.direct") / direct if direct else 0.0,
        "sampling.block_us_per_trial":
            1e6 * tr.total("sampling.block") / block if block else 0.0,
        "sampling.trials": direct + block,
        "sampling.draw_s": tr.total("sampling.draw"),
        "sampling.transform_s": tr.total("sampling.transform"),
        "sampling.norm_s": tr.total("sampling.norm"),
        "rng.substream_us": 1e6 * tr.total("rng.substream") / c["rng.substream_calls"]
        if c["rng.substream_calls"] else 0.0,
        "spencer.local_s": tr.total("spencer.local"),
        "spencer.abelian_s": tr.total("spencer.abelian"),
        "spencer.brute_s": tr.total("spencer.brute"),
        "spencer.random_s": tr.total("spencer.random"),
        "spencer.norm_ms": 1e3 * statistics.median(norm_times) if norm_times else 0.0,
        "spencer.flips_accepted": c["spencer.flips_accepted"],
        **{f"{layer}.failed": tr.failed[layer]
           for layer in ("groups", "regular", "bounds", "sampling", "spencer")},
        "trace.overhead_ratio": traced_s / untraced if untraced else 0.0,
        "trace.bytes_mismatch": sum(not r.get("bytes_match", True) for r in records),
        "check.max_rel_err": max((r.get("rel_err", 0.0) for r in records), default=0.0),
        "spencer.discrepancy_ratio": statistics.fmean(ratios) if ratios else 0.0,
    }


# ------------------------------------------------------------------ main

def summarize(records) -> dict:
    failed = sum("error" in r for r in records)
    ratios = [r["ratio"] for r in records if "ratio" in r]
    out = {"attempted": len(records), "failed": failed,
           "error_rate": failed / len(records),
           "max_rel_err": max((r.get("rel_err", 0.0) for r in records), default=0.0)}
    if ratios:
        out["discrepancy_ratio"] = statistics.fmean(ratios)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cayleylab" / "__init__.py").is_file():
        print(f"error: no cayleylab sources under {SRC}", file=sys.stderr)
        return 2

    os.environ.pop("CAYLEYLAB_CACHE_DIR", None)
    os.environ.pop("CAYLEYLAB_BACKEND", None)
    sys.path.insert(0, str(SRC))
    from checks import Checker

    OUT.mkdir(exist_ok=True)
    env = child_env()
    checker = Checker()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, extra, records, tracers = traced(args.workload, args.seed, args.seconds,
                                                  checker, env)
        units = PER_LAYER_UNITS
        with open(OUT / f"{tag}.spans.jsonl", "w", encoding="utf-8") as fh:
            for tr in tracers:
                for i, span in enumerate(tr.spans):
                    fh.write(json.dumps({"id": i, **span}) + "\n")
    else:
        metrics, extra, records = end_to_end(args.workload, args.seed, args.seconds,
                                             checker, env)
        units = END_TO_END_UNITS
    summary = summarize(records)

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(), "summary": summary,
              "metrics": metrics, "extra": extra,
              "commands": [{k: v for k, v in r.items() if k != "stdout"} for r in records]}
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    for r in records:
        if "error" in r:
            print(f"FAILED {' '.join(r['argv'])}: {r['error']}")
    for name, value in {**metrics, **{k: v for k, v in summary.items()
                                      if k not in ("attempted", "failed")}}.items():
        print(f"{name:30s} {value!r} {units.get(name, 'ratio')}")
    print(f"details: {OUT.relative_to(ROOT) / (tag + '.json')}")
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"], "failed": summary["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

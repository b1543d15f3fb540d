"""Self-test of the benchmark's output checks.

Runs a few small commands through `cayleylab.cli.main`, confirms that every
clean output passes its check, then feeds each check corrupted copies of the
output and confirms that every one is rejected. Also confirms the frozen
degree tables against their own invariants and the PSL(2, q) formula against
the class-constant oracle where the oracle applies. Run from the repository
root (a few seconds):

    python3 perfbench/selftest.py

Exits 1 if a clean output is rejected or a corrupted one is accepted.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cayleylab  # noqa: E402
from cayleylab.cli import main as cli_main  # noqa: E402

from checks import _A7_DEGREES, Checker, CheckFailed, psl2_degrees  # noqa: E402


def _json_edit(edit):
    def corrupt(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return corrupt


def _set(key, fn):
    return _json_edit(lambda d: d.__setitem__(key, fn(d[key])))


def _csv_cell(row, col, fn):
    def corrupt(text):
        lines = text.split("\n")
        cells = lines[row].split(",")
        cells[col] = repr(fn(float(cells[col])))
        lines[row] = ",".join(cells)
        return "\n".join(lines)
    return corrupt


def _flip_identity(d):
    d["signs"][0] = -d["signs"][0]


def _zero_sign(d):
    d["signs"][3] = 0


def _bump_degree(d):
    d["degrees"][-1] += 1


def _merge_classes(d):
    d["class_sizes"][-2:] = [d["class_sizes"][-2] + d["class_sizes"][-1]]


COMMON = {
    "truncated": lambda t: t[: len(t) // 2],
    "not json": lambda t: "Traceback (most recent call last):\n",
}

CASES = [
    (["group-info", "cyclic:8", "--seed", "3"], {
        "degree changed": _json_edit(_bump_degree),
        "order changed": _set("order", lambda v: v + 1),
        "n_linear changed": _set("n_linear", lambda v: v - 1),
        "group renamed": _set("group", lambda v: "cyclic:9"),
    }),
    (["group-info", "psl2:7", "--seed", "3"], {
        "degree changed": _json_edit(_bump_degree),
        "classes merged": _json_edit(_merge_classes),
        "log counts changed": _set("degrees_below_log_n", lambda v: v + 1),
    }),
    (["bounds", "alt:5", "--seed", "1"], {
        "sigma off 1e-9": _set("sigma", lambda v: v * (1 + 1e-9)),
        "v off 1e-9": _set("v", lambda v: v * (1 + 1e-9)),
        "w off 1e-6": _set("w_certificate", lambda v: v * (1 + 1e-6)),
        "m above grid": _set("m_of_g", lambda v: v * (1 + 1e-7)),
        "m below grid": _set("m_of_g", lambda v: v * (1 - 1e-7)),
        "s_star moved": _set("s_star", lambda v: v + 1e-2),
        "nck_upper off": _set("nck_upper", lambda v: v * (1 + 1e-9)),
        "extra key": _json_edit(lambda d: d.__setitem__("x", 1)),
    }),
    (["estimate", "alt:5", "--method", "direct_real", "--trials", "50", "--seed", "5"], {
        "mean off 1e-2": _set("mean", lambda v: v * (1 + 1e-2)),
        "std_error off": _set("std_error", lambda v: v * 1.1),
        "seed not echoed": _set("seed", lambda v: v + 1),
    }),
    (["estimate", "psl2:7", "--method", "direct_complex", "--trials", "3", "--seed", "2"], {
        "mean off 1e-2": _set("mean", lambda v: v * (1 + 1e-2)),
    }),
    (["estimate", "psl2:7", "--method", "block", "--trials", "2000", "--seed", "7"], {
        "mean off 10 SE": _json_edit(
            lambda d: d.__setitem__("mean", d["mean"] + 10 * d["std_error"])),
        "std_error doubled": _set("std_error", lambda v: 2 * v),
    }),
    (["theorem1-sweep", "--family", "cyclic_powers", "--sizes", "16,64", "--trials", "500",
      "--seed", "4"], {
        "row mean off": _csv_cell(2, 2, lambda v: v * 1.05),
        "m off": _csv_cell(1, 4, lambda v: v * (1 + 1e-6)),
        "ratio off": _csv_cell(1, 5, lambda v: v * (1 + 1e-9)),
        "row missing": lambda t: "\n".join(t.split("\n")[:2] + [""]),
        "header changed": lambda t: t.replace("std_error", "se", 1),
    }),
    (["spencer", "cyclic:16", "--method", "brute", "--seed", "0"], {
        "identity sign flipped": _json_edit(_flip_identity),
        "norm off 1e-6": _set("norm", lambda v: v * (1 + 1e-6)),
        "seed not null": _set("seed", lambda v: 0),
    }),
    (["spencer", "alt:5", "--method", "local", "--budget", "3", "--seed", "9"], {
        "identity sign flipped": _json_edit(_flip_identity),
        "sign zeroed": _json_edit(_zero_sign),
        "signs truncated": _set("signs", lambda v: v[:-1]),
        "ratio off": _set("ratio", lambda v: v * (1 + 1e-9)),
        "method renamed": _set("method", lambda v: "brute_force"),
    }),
    (["spencer", "cyclic:16", "--method", "abelian", "--budget", "3", "--seed", "9"], {
        "norm off 1e-6": _set("norm", lambda v: v * (1 + 1e-6)),
    }),
]


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return buf.getvalue()


def main() -> int:
    checker = Checker()
    bad = []
    n_checks = 0
    G7 = cayleylab.make_group("psl2:7")
    if psl2_degrees(7) != cayleylab.dixon_oracle(G7).degrees:
        bad.append("PSL(2, q) degree formula disagrees with dixon_oracle at q = 7")
    for q in (11, 13):
        n = q * (q * q - 1) // 2
        if sum(d * d for d in psl2_degrees(q)) != n:
            bad.append(f"PSL(2, {q}) degrees do not square-sum to {n}")
    if sum(d * d for d in _A7_DEGREES) != 2520 or len(_A7_DEGREES) != 9:
        bad.append("A7 degree table breaks sum d^2 = 2520 or its 9 classes")
    for argv, corruptions in CASES:
        text = _cli(argv)
        try:
            checker.check(argv, text)
        except CheckFailed as exc:
            bad.append(f"clean output rejected: {' '.join(argv)}: {exc}")
        for name, corrupt in {**COMMON, **corruptions}.items():
            n_checks += 1
            try:
                checker.check(argv, corrupt(text))
            except CheckFailed:
                continue
            bad.append(f"corruption accepted: {' '.join(argv[:2])}: {name}")
    for line in bad:
        print("FAIL", line)
    print(f"{n_checks - sum(l.startswith('corruption') for l in bad)}/{n_checks} "
          f"corrupted outputs rejected; {len(CASES)} clean outputs checked")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

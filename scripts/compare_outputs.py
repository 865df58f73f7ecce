"""Compare the outputs of two lqstack checkouts, column by column.

Runs `solve`, `simulate` and `verify` (--paths 4000 --seed 3) from each
checkout, with that checkout's src/ on PYTHONPATH, on four models, each at
N=200 and N=1600 steps:
  * standard: the standard model (D1 = D2 = 0), on which the follower's
    offset gain lambda is exactly zero;
  * d1d2: the standard model with D1=0.3, D2=0.2;
  * time_varying: D1=0.3, D2=0.2, C=0.4, with A, R2, B1 and D2 as node
    arrays times 1 + 0.3 sin(2 pi t / T);
  * rng91: the constant-coefficient draw of perfbench's
    random_model(np.random.default_rng(91), N), to six digits, whose large
    D1 and D2 make lambda and the offset's diffusion far from zero.

For every CSV file it prints each column's largest move over the column's
scale (its largest absolute value in either run), and for a column that
moved, the rows it moved in (at most five), named by the file's first text
column or else by row number.  Each command's stdout is scored the same
way, field by field: the k-th number of every line is one column, and a
line is named by its text with the numbers cut out.  A difference is a
changed exit code, a text column, a row count, any stdout text outside the
numbers (a PASS/FAIL word, a row name, a line count), or a number whose text
changed while its value did not (0.0 to -0.0, say), named by its column and
row.  Before the last two lines it prints the src/ line count of both
checkouts, as `wc -l src/lqstack/*.py` counts them; the last two lines give
the largest move of all and the number of differences.  The script exits 1
when there are differences.

    python scripts/compare_outputs.py PARENT CHANGE [--steps 200 1600]
"""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

STANDARD = {
    "A": 0.1, "B1": 1.0, "B2": 1.0, "C": 0.2, "D1": 0.0, "D2": 0.0, "h": 1.0,
    "Q1": 1.0, "R1": 1.0, "Q2": 1.0, "R2": 1.0, "G1": 1.0, "G2": 1.0,
    "x0": 1.0, "T": 1.0,
}
RNG91 = {
    "A": -0.433834, "B1": 1.392301, "B2": 1.283178, "C": -0.331959, "D1": 0.552308, "D2": 0.242119, "h": 1.0,
    "Q1": 1.786074, "R1": 0.977239, "Q2": 1.1476, "R2": 0.625546, "G1": 1.672381, "G2": 1.770467,
    "x0": -0.069928, "T": 1.0,
}
COMMANDS = ("solve", "simulate", "verify")
# A number standing alone in a line of stdout, as repr prints a float or an int;
# digits inside a name such as standard_200_verify are text.
NUMBER = re.compile(r"(?<![\w.])-?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf)(?!\w)")


def models(steps: int) -> dict[str, dict]:
    """The four compared problem files at the given step count."""
    t = np.linspace(0.0, STANDARD["T"], steps + 1)
    factor = 1.0 + 0.3 * np.sin(2.0 * np.pi * t / STANDARD["T"])
    varying = dict(STANDARD, D1=0.3, D2=0.2, C=0.4, steps=steps)
    varying.update({k: (varying[k] * factor).tolist() for k in ("A", "R2", "B1", "D2")})
    return {"standard": dict(STANDARD, steps=steps),
            "d1d2": dict(STANDARD, D1=0.3, D2=0.2, steps=steps),
            "time_varying": varying,
            "rng91": dict(RNG91, steps=steps)}


def run(checkout: Path, model: Path, command: str, out: Path) -> subprocess.CompletedProcess:
    """One command from one checkout, run in out's parent so stdout names out alike on both sides."""
    src = str(checkout.resolve() / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out.parent.mkdir(parents=True, exist_ok=True)
    args = [sys.executable, "-m", "lqstack", command, "--model", str(model), "--out", out.name,
            "--paths", "4000", "--seed", "3"]
    return subprocess.run(args, env=env, cwd=out.parent, capture_output=True, text=True)


def read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def column_move(a: list[str], b: list[str]) -> float | None:
    """Largest |a - b| over the column's scale; None for a text column."""
    try:
        x, y = np.array(a, dtype=float), np.array(b, dtype=float)
    except ValueError:
        return None
    if np.array_equal(x, y, equal_nan=True):
        return 0.0
    scale = max(np.max(np.abs(x)), np.max(np.abs(y)))
    return float(np.max(np.abs(x - y)) / scale) if scale > 0 else float("inf")


def moved_in(a: list[str], b: list[str], keys: list[str]) -> str:
    """' in [key, ...]': the keys of the rows in which a numeric column moved, at most five."""
    x, y = np.array(a, dtype=float), np.array(b, dtype=float)
    moved = [key for key, u, v in zip(keys, x, y) if u != v and not (np.isnan(u) and np.isnan(v))]
    more = f", ... {len(moved)} rows" if len(moved) > 5 else ""
    return f" in [{', '.join(moved[:5])}{more}]" if moved else ""


def same_value_changes(a: list[str], b: list[str], keys: list[str]) -> list[str]:
    """'row key: text != text' for each row of a numeric column whose text changed but whose value did not."""
    x, y = np.array(a, dtype=float), np.array(b, dtype=float)
    return [f"row {key}: {s!r} != {t!r}" for key, s, t, u, v in zip(keys, a, b, x, y)
            if s != t and (u == v or (np.isnan(u) and np.isnan(v)))]


def row_keys(cols: dict[str, list[str]]) -> list[str]:
    """Each row's name: its value in the first text column, else 'row i'."""
    for values in cols.values():
        try:
            np.array(values, dtype=float)
        except ValueError:
            return values
    return [f"row {i}" for i in range(len(next(iter(cols.values()), [])))]


def compare_file(name: str, a: Path, b: Path) -> tuple[float, list[str]]:
    """(largest column move, differences) of one CSV file; prints one line per file."""
    cols_a, cols_b = read_columns(a), read_columns(b)
    if list(cols_a) != list(cols_b):
        return 0.0, [f"{name}: header {list(cols_a)} != {list(cols_b)}"]
    moves, diffs, keys = [], [], row_keys(cols_a)
    for col in cols_a:
        if len(cols_a[col]) != len(cols_b[col]):
            diffs.append(f"{name}: {len(cols_a[col])} rows != {len(cols_b[col])} rows")
            break
        move = column_move(cols_a[col], cols_b[col])
        if move is None:
            rows = [i for i, (u, v) in enumerate(zip(cols_a[col], cols_b[col])) if u != v]
            if rows:
                diffs.append(f"{name}: column {col} differs in rows {rows[:5]}"
                             f" ({cols_a[col][rows[0]]!r} != {cols_b[col][rows[0]]!r})")
        else:
            moves.append((col, move))
            diffs += [f"{name}: column {col} {change}"
                      for change in same_value_changes(cols_a[col], cols_b[col], keys)]
    print(f"    {name}: " + " | ".join(f"{col} {move:.2g}" + moved_in(cols_a[col], cols_b[col], keys)
                                       for col, move in moves))
    return max((move for _, move in moves), default=0.0), diffs


def first_difference(lines_a: list[str], lines_b: list[str]) -> str:
    """The first differing line pair of two outputs."""
    for u, v in zip(lines_a, lines_b):
        if u != v:
            return f"{u!r} != {v!r}"
    return f"{len(lines_a)} lines != {len(lines_b)} lines"


def compare_stdout(a: str, b: str) -> tuple[float, list[str]]:
    """(largest column move, differences) of two stdouts.

    Each line's numbers are cut out of its text; the k-th number of every
    line is column k, scored as a CSV column.  Any other text that differs
    is one difference, and so is each number whose text changed but whose
    value did not.
    """
    lines_a, lines_b = a.splitlines(), b.splitlines()
    text_a, text_b = ([NUMBER.sub("#", line) for line in lines] for lines in (lines_a, lines_b))
    if text_a != text_b:
        return 0.0, [f"stdout differs: {first_difference(lines_a, lines_b)}"]
    columns: dict[int, list[tuple[str, str, str]]] = {}
    for u, v, text in zip(lines_a, lines_b, text_a):
        for k, pair in enumerate(zip(NUMBER.findall(u), NUMBER.findall(v))):
            columns.setdefault(k, []).append((*pair, text))
    largest, parts, diffs = 0.0, [], []
    for k, rows in columns.items():
        col_a, col_b, keys = zip(*rows)
        move = column_move(col_a, col_b)
        largest = max(largest, move)
        parts.append(f"{k} {move:.2g}" + moved_in(col_a, col_b, keys))
        diffs += [f"stdout: number {k} {change}" for change in same_value_changes(col_a, col_b, keys)]
    if parts:
        print("    stdout: " + " | ".join(parts))
    return largest, diffs


def compare_case(case: str, procs, outs: list[Path]) -> tuple[float, list[str]]:
    """(largest column move, differences) of one command run from both checkouts."""
    print(f"{case}: exit {procs[0].returncode} / {procs[1].returncode}")
    diffs = []
    if procs[0].returncode != procs[1].returncode:
        diffs.append(f"exit code {procs[0].returncode} != {procs[1].returncode}")
    largest, stdout_diffs = compare_stdout(procs[0].stdout, procs[1].stdout)
    diffs += stdout_diffs
    names = [sorted(p.name for p in out.glob("*.csv")) for out in outs]
    if names[0] != names[1]:
        diffs.append(f"files {names[0]} != {names[1]}")
    for name in sorted(set(names[0]) & set(names[1])):
        move, file_diffs = compare_file(name, outs[0] / name, outs[1] / name)
        largest = max(largest, move)
        diffs += file_diffs
    return largest, [f"{case}: {d}" for d in diffs]


def src_lines(checkout: Path) -> int:
    """The newlines in the checkout's src/lqstack/*.py, the total of wc -l."""
    return sum(path.read_bytes().count(b"\n") for path in (checkout / "src" / "lqstack").glob("*.py"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout whose outputs are the reference")
    parser.add_argument("change", type=Path, help="checkout compared against it")
    parser.add_argument("--steps", type=int, nargs="+", default=[200, 1600], help="grid step counts")
    args = parser.parse_args()

    largest, diffs = 0.0, []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for steps in args.steps:
            for label, data in models(steps).items():
                model = work / f"{label}_{steps}.json"
                model.write_text(json.dumps(data))
                for command in COMMANDS:
                    outs = [work / side / f"{label}_{steps}_{command}" for side in ("parent", "change")]
                    procs = [run(checkout, model, command, out)
                             for checkout, out in zip((args.parent, args.change), outs)]
                    move, case_diffs = compare_case(f"{label} N={steps} {command}", procs, outs)
                    largest = max(largest, move)
                    diffs += case_diffs
    for d in diffs:
        print(f"DIFF {d}")
    print(f"src/ lines: {src_lines(args.parent)} / {src_lines(args.change)}")
    print(f"largest column move: {largest!r}")
    print(f"differences: {len(diffs)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

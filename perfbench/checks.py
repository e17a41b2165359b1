"""Output checks, so that a fast wrong answer counts as a failed run.

Search reports: one line per mask in ascending order, each `s2=` field
matching its mask, a summary equal to the line tallies, and every printed
certificate verified exactly against neighbour counts recomputed from the
generated edge list, with its angles checked against the closed forms.

Simulate outputs: the trajectory CSV parses with plain numpy and runs from
t=0 to t_end, the sync JSON parses and its partitions cover 1..n exactly
once, and the final phases match the independent oracle.

Two defects of the program are visible on these workloads and are left
alone here: a point solution with mu1 < mu2 is labelled Infeasible rather
than swapped (search), and phases that agree modulo 2*pi are reported as
separate sync blocks (simulate-dense).  No check looks at either.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

LABELS = ("Equitable", "Condition2Unique", "Condition2Family", "Boundary", "Infeasible")
CERTIFIED_LABELS = ("Condition2Unique", "Boundary")
ANGLE_TOL = 1e-12
# The CLI's default step-control tolerances, which the workloads keep.
REL_TOL = 1e-9
ABS_TOL = 1e-11
# Step control bounds the local error only.  On complete:48 the global error
# of the final phases was measured at up to 30 * rel_tol * |theta|, so allow
# three orders of magnitude.
PHASE_TOL_FACTOR = 1000.0
SELF_TEST_PHASE_SHIFT = 1e-2


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def neighbour_masks(n: int, edges) -> list[int]:
    """Bitmask of each vertex's neighbours; bit v-1 stands for vertex v."""
    masks = [0] * (n + 1)
    for u, v in edges:
        masks[u] |= 1 << (v - 1)
        masks[v] |= 1 << (u - 1)
    return masks


def closed_form_angles(mu1: Fraction, mu2: Fraction) -> tuple[float, float, float]:
    """(alpha, beta, offset) of a gain pair, as the source paper defines them."""
    s = mu1 + mu2
    _require(mu1 >= mu2 and abs(s) <= 2, f"certificate gains ({mu1}, {mu2}) outside the model range")
    alpha = math.pi / 2 if mu1 == mu2 else math.atan2(math.sqrt(float(4 - s * s)), float(mu1 - mu2))
    offset = math.acos(float(-s / 2))
    return alpha, offset - alpha, offset


def _fields(tokens: list[str]) -> dict[str, str]:
    out = {}
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if sep:
            out[key] = value
    return out


def _check_certificate(fields: dict[str, str], s2_mask: int, n: int, nbrs: list[int],
                       mask_text: str, parsed: dict) -> None:
    """Exact count identity at every vertex, then the angles' closed forms.

    parsed caches the gains and closed-form angles per printed gain triple,
    which repeats across many rows."""
    key = tuple(fields.get(k) for k in ("mu1", "mu2", "r"))
    try:
        if key not in parsed:
            mu1, mu2, r = (Fraction(x) for x in key)
            parsed[key] = (mu1, mu2, r, closed_form_angles(mu1, mu2))
        printed = tuple(float(fields[k]) for k in ("alpha", "beta", "offset"))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CheckFailed(f"mask {mask_text}: unreadable certificate ({exc!r})") from None
    mu1, mu2, r, angles = parsed[key]
    full = (1 << n) - 1
    # mu*d_cross - r = d_in, scaled by both denominators to stay in integers
    r_num, r_den = r.numerator, r.denominator
    for v in range(1, n + 1):
        in_s2 = s2_mask >> (v - 1) & 1
        mu = mu2 if in_s2 else mu1
        d_cross = (nbrs[v] & ((full & ~s2_mask) if in_s2 else s2_mask)).bit_count()
        d_in = nbrs[v].bit_count() - d_cross
        if mu.numerator * d_cross * r_den - r_num * mu.denominator != d_in * mu.denominator * r_den:
            raise CheckFailed(f"mask {mask_text}: vertex {v} breaks mu*d_cross - r = d_in "
                              f"({mu}*{d_cross} - {r} != {d_in})")
    for name, got, want in zip(("alpha", "beta", "offset"), printed, angles):
        _require(abs(got - want) <= ANGLE_TOL, f"mask {mask_text}: {name}={got!r}, closed form {want!r}")


def check_search_report(text: str, n: int, edges) -> dict[str, int]:
    """Validate a full search report; returns the line tallies plus 'certified'."""
    _require(text.endswith("\n"), "report does not end with a newline")
    lines = text[:-1].split("\n")
    total = (1 << (n - 1)) - 1
    _require(len(lines) == total + 1, f"{len(lines) - 1} report lines for {total} masks")
    nbrs = neighbour_masks(n, edges)
    tally = dict.fromkeys(LABELS, 0)
    certified = 0
    parsed: dict = {}
    for expected_mask, line in enumerate(lines[:-1], start=1):
        tokens = line.split(" ")
        _require(len(tokens) >= 3, f"short report line {line!r}")
        mask_text, s2_text, label = tokens[0], tokens[1], tokens[2]
        _require(mask_text.isdigit() and int(mask_text) == expected_mask,
                 f"line {expected_mask} carries mask {mask_text!r}")
        _require(s2_text.startswith("s2="), f"mask {mask_text}: no s2 field")
        s2 = [int(v) for v in s2_text[3:].split(",") if v]
        s2_mask = sum(1 << (v - 1) for v in s2)
        _require(s2_mask == expected_mask << 1 and len(s2) == len(set(s2)),
                 f"mask {mask_text}: s2={s2_text[3:]} does not match the mask")
        _require(label in tally, f"mask {mask_text}: unknown label {label!r}")
        tally[label] += 1
        fields = _fields(tokens[3:])
        if "mu1" in fields:
            _require(label in CERTIFIED_LABELS, f"mask {mask_text}: {label} row carries a certificate")
            _check_certificate(fields, s2_mask, n, nbrs, mask_text, parsed)
            certified += 1
        else:
            _require(label not in CERTIFIED_LABELS, f"mask {mask_text}: {label} row lacks a certificate")
    summary = lines[-1].split(" ")
    _require(summary[:1] == ["#"], f"bad summary line {lines[-1]!r}")
    counts = _fields(summary[1:])
    _require(counts.get("total") == str(total), f"summary total {counts.get('total')} != {total}")
    stated = {k: v for k, v in counts.items() if k != "total"}
    _require(stated == {k: str(v) for k, v in tally.items()},
             f"summary {stated} does not match line tallies {tally}")
    return {**tally, "certified": certified}


def phase_tolerance(oracle_final: np.ndarray) -> float:
    """Allowed final-phase gap, derived from the run's rel_tol * |theta|."""
    return PHASE_TOL_FACTOR * (ABS_TOL + REL_TOL * float(np.abs(oracle_final).max()))


def _check_cover(blocks, n: int, what: str) -> None:
    flat = [v for block in blocks for v in block]
    _require(all(isinstance(v, int) for v in flat) and sorted(flat) == list(range(1, n + 1)),
             f"{what} blocks do not partition 1..{n}")


def check_simulation(csv_text: str, sync_text: str, n: int, t_end: float,
                     oracle_final: np.ndarray) -> tuple[int, float]:
    """Validate one simulate run; returns (CSV data rows, final-phase error)."""
    header, _, body = csv_text.partition("\n")
    _require(header == "t," + ",".join(f"theta_{i}" for i in range(1, n + 1)), "bad CSV header")
    try:
        data = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"CSV does not parse: {exc}") from None
    _require(data.shape[1] == n + 1 and data.shape[0] >= 2, f"CSV shape {data.shape} for n={n}")
    _require(bool(np.all(np.isfinite(data))), "CSV holds non-finite values")
    t = data[:, 0]
    _require(t[0] == 0.0 and abs(t[-1] - t_end) <= 1e-12 * max(1.0, t_end),
             f"t runs from {t[0]!r} to {t[-1]!r}, expected 0 to {t_end!r}")
    _require(bool(np.all(np.diff(t) > 0.0)), "t does not increase strictly")
    try:
        sync = json.loads(sync_text)
        exact_blocks = sync["exact"]["blocks"]
        tail = sync["tail"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"sync JSON unreadable: {exc!r}") from None
    _check_cover(exact_blocks, n, "exact sync")
    if tail is not None:
        _check_cover(tail["clusters"], n, "tail cluster")
    err = float(np.abs(data[-1, 1:] - oracle_final).max())
    tol = phase_tolerance(oracle_final)
    _require(err <= tol, f"final phases differ from the oracle by {err:.3g} > {tol:.3g}")
    return data.shape[0], err


def flip_certificate_digit(text: str) -> str:
    """The report with one digit of the first certified mu1 changed, or of the
    summary's last tally when no row carries a certificate."""
    at = text.find(" mu1=")
    i = at + len(" mu1=") if at >= 0 else text.rstrip("\n").rfind("=") + 1
    while not text[i].isdigit():
        i += 1
    return text[:i] + ("2" if text[i] == "1" else "1") + text[i + 1:]


def shift_final_phase(csv_text: str) -> str:
    """The trajectory with the last phase of vertex 1 moved by a small angle."""
    head, _, last = csv_text.rstrip("\n").rpartition("\n")
    values = last.split(",")
    values[1] = repr(float(values[1]) + SELF_TEST_PHASE_SHIFT)
    return head + "\n" + ",".join(values) + "\n"


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False

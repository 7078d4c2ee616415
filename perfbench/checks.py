"""Output checks for the three workloads.

Every check runs outside the timed region and returns None for a good
output or a short reason string.  The references are independent of the
package: closed forms written out here, and mpmath at 30 digits for the
eigenfunctions.
"""

from __future__ import annotations

import json
import math
import random
import sys

import mpmath
import numpy as np

# Rows each verify suite reported when the benchmark was defined; a
# suite that reports fewer checks no longer does the same work.
VERIFY_ROWS = {"identities": 6, "normalization": 4, "duality": 5, "oracle": 7}

# Tolerances of the README guarantee table, never looser.
SHOOTING_RTOL = 1e-5
FD_GROUND_TOL = 1e-4       # in units of hbar omega
FD_SPACING_TOL = 1e-3      # in units of hbar omega
QUADRATURE_RTOL = 1e-8
GRID_PEAK_TOL = 1e-8       # eigenfunction error relative to the state's peak
PHASE_TOL = 1e-12

REFERENCE_DIGITS = 30
SUBSAMPLE = 24

NONFINITE = "non-finite values"
LOG_FLOAT_MAX = math.log(sys.float_info.max)
_JSON_PUNCTUATION = str.maketrans("[],", "   ")


def hermite_overflows(op: dict) -> bool:
    """Whether the float Hermite recurrence can overflow on the request's grid.

    On a grid reaching past the classical turning point the recurrence
    values are largest at the grid end z_max, where they stay below
    (2 z_max)^N, so no value can overflow unless N ln(2 z_max) exceeds
    the log of the largest float.
    """
    if op.get("system") != "oscillator" or op["N"] == 0:
        return False
    z_max = op["x_max"] * math.sqrt(op["omega"])
    return op["N"] * math.log(2.0 * z_max) > LOG_FLOAT_MAX


def is_known_defect(op: dict, reason: str) -> bool:
    """The documented oscillator defect: NaN or inf once the Hermite
    recurrence overflows.  Non-finite output anywhere else is a failure."""
    return reason == NONFINITE and hermite_overflows(op)


def parse_values(text: str, fmt: str) -> tuple[list[str], np.ndarray]:
    """Column names and the values of a table, CSV or JSON output.

    The values go straight into one float array (numpy reads 'nan',
    'inf', 'NaN' and 'Infinity'), with no list of rows in between, so
    the check holds less memory than the program held to write the text.
    """
    if fmt == "json":
        start = text.index('"rows":')
        columns = json.loads(text[:start] + '"rows": []}')["columns"]
        body = text[start + len('"rows":'):].rstrip()
        if not body.endswith("}"):
            raise ValueError("JSON output does not end with '}'")
        body = body[:-1].translate(_JSON_PUNCTUATION)
    else:
        start = 0
        while text.startswith("#", start):
            start = text.index("\n", start) + 1
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        sep = "," if fmt == "csv" else None
        columns = text[start:end].split(sep)
        body = text[end:]
        if fmt == "csv":
            body = body.replace(",", " ")
    if not columns or not all(columns):
        raise ValueError("no column header")
    values = np.fromstring(body, sep=" ") if body.strip() else np.empty(0)
    if values.size % len(columns):
        raise ValueError(f"{values.size} values do not fill {len(columns)} columns")
    return columns, values.reshape(-1, len(columns))


def check_verify(op: dict, code: int, text: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = [line.split() for line in text.splitlines()
             if line and not line.startswith("#")]
    if not lines or lines[0][:2] != ["status", "check"]:
        return "unexpected verify columns"
    rows = [r for r in lines[1:] if r[0] in ("PASS", "FAIL")]
    if len(rows) < VERIFY_ROWS[op["suite"]]:
        return f"{len(rows)} check rows, expected {VERIFY_ROWS[op['suite']]}"
    failing = [r for r in rows if r[0] != "PASS"]
    if failing:
        return f"{len(failing)} checks failed"
    return None


def _anyon_reference(op: dict, x: float, unit_y_norm: bool) -> mpmath.mpc:
    """Normalized anyon eigenfunction at mass = hbar = 1 from mpmath's 1F1."""
    n, nu, alpha = op["n"], mpmath.mpf(op["nu"]), mpmath.mpf(op["alpha"])
    lam = n + nu
    beta = 2 * alpha / lam
    log_c = (0.5 * mpmath.log(alpha) - mpmath.log(lam) - mpmath.loggamma(2 * nu)
             + 0.5 * (mpmath.loggamma(n + 2 * nu) - mpmath.loggamma(n + 1)))
    if unit_y_norm:
        # extended states: y is the argument and the norm is taken in y
        y = abs(mpmath.mpf(x))
        log_c -= 0.5 * mpmath.log(beta)
    else:
        y = beta * mpmath.mpf(x)
    value = mpmath.exp(log_c - y / 2) * y ** nu * mpmath.hyp1f1(-n, 2 * nu, y)
    if not unit_y_norm:
        return mpmath.mpc(value)
    value /= mpmath.sqrt(2)
    return value * mpmath.expjpi(nu) if x < 0 else mpmath.mpc(value)


def _oscillator_reference(op: dict, u: float) -> mpmath.mpc:
    """Half-line normalized Hermite-Gaussian at mass = hbar = 1."""
    big_n, omega = op["N"], mpmath.mpf(op["omega"])
    z = mpmath.mpf(u) * mpmath.sqrt(omega)
    log_norm = (0.25 * mpmath.log(omega / mpmath.pi) + 0.5 * mpmath.log(2)
                - 0.5 * (big_n * mpmath.log(2) + mpmath.loggamma(big_n + 1)))
    return mpmath.mpc(mpmath.exp(log_norm - z * z / 2) * mpmath.hermite(big_n, z))


class GridChecker:
    """Checks every output of one sample_grid request.

    All values must be finite.  On a fixed subsample of rows (evenly
    spaced, seeded extras, mirrored partners and the emitted peak) the
    values must match mpmath within 1e-8 of the largest reference value.
    The references are computed once per row and reused across passes.
    """

    def __init__(self, op: dict):
        self.op = op
        self._refs: dict[float, complex] = {}

    def _reference(self, x: float) -> complex:
        if x not in self._refs:
            with mpmath.workdps(REFERENCE_DIGITS):
                if self.op["system"] == "anyon":
                    ref = _anyon_reference(self.op, x, self.op["extended"])
                else:
                    ref = _oscillator_reference(self.op, x)
            self._refs[x] = complex(ref)
        return self._refs[x]

    def subsample(self, values: np.ndarray) -> list[int]:
        count = values.size
        rng = random.Random(" ".join(self.op["argv"]))
        picks = set(np.linspace(0, count - 1, SUBSAMPLE // 2).round().astype(int).tolist())
        picks.update(rng.randrange(count) for _ in range(SUBSAMPLE // 2))
        picks.add(int(np.argmax(np.abs(values))))
        if self.op["extended"]:
            picks.update([count - 1 - i for i in picks])
        return sorted(picks)

    def check(self, code: int, text: str) -> str | None:
        op = self.op
        if code != 0:
            return f"exit code {code}"
        try:
            columns, data = parse_values(text, op["format"])
        except ValueError as exc:
            return f"unreadable output: {exc}"
        expected = (["y", "re", "im"] if op["extended"] else
                    ["x", "phi"] if op["system"] == "anyon" else ["u", "psi"])
        if columns != expected:
            return f"columns {columns}, expected {expected}"
        if len(data) != op["points"]:
            return f"{len(data)} rows, expected {op['points']}"
        xs = data[:, 0]
        if xs[0] != op["x_min"] or xs[-1] != op["x_max"]:
            return "grid endpoints differ from the request"
        if not np.all(np.isfinite(data)):
            return NONFINITE
        values = data[:, 1] + 1j * data[:, 2] if op["extended"] else data[:, 1]
        if op["extended"]:
            reason = self._check_phase(xs, values)
            if reason:
                return reason
        picks = self.subsample(values)
        refs = np.array([self._reference(float(xs[i])) for i in picks])
        peak = float(np.max(np.abs(refs)))
        err = float(np.max(np.abs(values[picks] - refs)))
        if not err <= GRID_PEAK_TOL * peak:
            return f"error {err:.3e} exceeds {GRID_PEAK_TOL:g} of peak {peak:.3e}"
        return None

    def _check_phase(self, ys: np.ndarray, values: np.ndarray) -> str | None:
        """Phase 1 on y > 0 and e^(i pi nu) on y < 0, at every row."""
        twist = np.exp(-1j * math.pi * self.op["nu"])
        rotated = np.where(ys < 0, values * twist, values)
        mags = np.abs(values)
        bad = np.abs(rotated.imag) > PHASE_TOL * mags
        if np.any(bad):
            return f"phase off e^(i pi nu) at {int(bad.sum())} rows"
        return None


def check_solver(op: dict, result) -> str | None:
    kind = op["kind"]
    if kind == "shooting":
        if len(result) != op["n_max"] + 1:
            return f"{len(result)} levels, expected {op['n_max'] + 1}"
        for n, got in enumerate(result):
            exact = -op["mass"] * op["alpha"] ** 2 / (2.0 * (n + op["nu"]) ** 2)
            if not abs(got - exact) <= SHOOTING_RTOL * abs(exact):
                return f"level {n}: {got!r} vs closed form {exact!r}"
        return None
    if kind == "fd":
        omega = op["omega"]
        if len(result) != op["levels"]:
            return f"{len(result)} levels, expected {op['levels']}"
        if not abs(result[0] - 0.5 * omega) <= FD_GROUND_TOL * omega:
            return f"ground state {result[0]!r} vs {0.5 * omega!r}"
        spacing = max(abs((b - a) - omega) for a, b in zip(result, result[1:]))
        if not spacing <= FD_SPACING_TOL * omega:
            return f"level spacing off by {spacing:.3e}"
        return None
    if kind == "quadrature":
        n, nu = op["n"], op["nu"]
        exact = 2.0 * (n + nu) * math.exp(math.lgamma(n + 2.0 * nu) - math.lgamma(n + 1.0))
        if not abs(result - exact) <= QUADRATURE_RTOL * exact:
            return f"integral {result!r} vs closed form {exact!r}"
        return None
    return f"unknown operation kind {kind!r}"

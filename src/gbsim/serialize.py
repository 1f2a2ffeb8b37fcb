"""JSON file formats: states, complex matrices, distributions, samples.

All files are UTF-8 JSON with sorted keys; doubles rely on Python's
shortest round-trip float repr, so rewriting a file reproduces it byte for
byte. Quadrature data is tagged with ``"hbar": 2`` and
``"ordering": "xxpp"``; mode indices in patterns are 1-based.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import FormatError
from .gaussian import QuadratureState

HBAR_TAG = 2
ORDERING_TAG = "xxpp"


def dumps(obj):
    """Canonical JSON encoding: sorted keys, compact separators, newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def dump_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 ({exc})") from exc


def state_to_dict(state):
    return {
        "hbar": HBAR_TAG,
        "ordering": ORDERING_TAG,
        "modes": state.modes,
        "V": [[float(x) for x in row] for row in np.asarray(state.V)],
        "r": [float(x) for x in np.asarray(state.r)],
    }


def state_from_dict(data):
    if not isinstance(data, dict):
        raise FormatError(f"malformed state record: expected a JSON object, got {type(data).__name__}")
    try:
        if data.get("hbar", HBAR_TAG) != HBAR_TAG:
            raise FormatError(f"unsupported hbar convention {data['hbar']!r}; this package uses hbar = 2")
        if data.get("ordering", ORDERING_TAG) != ORDERING_TAG:
            raise FormatError(f"unsupported quadrature ordering {data['ordering']!r}")
        modes = int(data["modes"])
        V = np.asarray(data["V"], dtype=float)
        r = np.asarray(data["r"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed state record: {exc}") from exc
    if V.shape != (2 * modes, 2 * modes) or r.shape != (2 * modes,):
        raise FormatError(f"state arrays do not match modes={modes}")
    return QuadratureState(V, r)


def save_state(state, path):
    dump_json(state_to_dict(state), path)


def load_state(path):
    return state_from_dict(load_json(path))


def complex_matrix_to_dict(matrix):
    matrix = np.asarray(matrix, dtype=complex)
    return {
        "re": [[float(x) for x in row] for row in matrix.real],
        "im": [[float(x) for x in row] for row in matrix.imag],
    }


def complex_matrix_from_dict(data):
    try:
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed complex matrix: {exc}") from exc
    if re.shape != im.shape or re.ndim != 2:
        raise FormatError("re and im must be equal-shaped 2D arrays")
    return re + 1j * im


def save_matrix(matrix, path):
    dump_json(complex_matrix_to_dict(matrix), path)


def load_matrix(path):
    return complex_matrix_from_dict(load_json(path))


def distribution_to_dict(dist):
    """Distribution record: modes, normalization defect and the sorted {"pattern": [...], "p": value} list."""
    return {
        "modes": dist.modes,
        "normalization_defect": dist.normalization_defect,
        "probabilities": [{"pattern": list(pattern), "p": float(p)} for pattern, p in dist.items_sorted()],
    }


def save_distribution(dist, path):
    dump_json(distribution_to_dict(dist), path)


def _sample_row(record, trace):
    row = {"pattern": list(record.pattern.clicked)}
    if record.seed is not None:
        row["seed"] = int(record.seed)
    if record.substream is not None:
        row["substream"] = int(record.substream)
    if trace:
        row["noclick_probs"] = [float(p) for p in record.noclick_probs]
        row["branch_counts"] = list(record.branch_counts)
    return row


def save_samples(records, path, trace=False):
    """JSON-lines sample file, one record per line."""
    save_jsonl((_sample_row(record, trace) for record in records), path)


def save_jsonl(rows, path):
    """JSON-lines file: one canonical ``dumps`` row per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(dumps(row) for row in rows)


def collision_report_to_dict(report):
    out = {
        "modes": report.modes,
        "epsilon": report.epsilon,
        "mean_photons": report.mean_photons,
        "mean_photons_sq": report.mean_photons_sq,
        "haar_bound": report.haar_bound,
        "gaps": [{"pattern": list(k), "gap": float(v)} for k, v in sorted(report.gaps.items())],
    }
    if report.l1_patternwise is not None:
        out["l1_patternwise"] = report.l1_patternwise
        out["photon_cutoff"] = report.photon_cutoff
        out["residual_bound"] = report.residual_bound
    return out

"""Seeded fuzz test of the state-document contract: ``teleres analyze`` on a
malformed document returns exit code 2 with one ``error:`` line, and on a
valid one returns 0. It never raises and never prints a traceback."""

import json

import numpy as np
import pytest

from teleres.cli import EXIT_OK, EXIT_VALIDATION, main
from conftest import random_state


def _doc(d: int, index: int) -> dict:
    flat = random_state(d, index, seed=4242).mat.ravel()
    return {"d": d, "entries": [[z.real, z.imag] for z in flat]}


def _at(doc: dict, rng) -> tuple[int, int]:
    """A random (entry, part) position of ``doc``."""
    return int(rng.integers(len(doc["entries"]))), int(rng.integers(2))


def _set(doc: dict, rng, value) -> dict:
    k, part = _at(doc, rng)
    doc["entries"][k][part] = value
    return doc


def _hermitian_defect(doc: dict, rng) -> dict:
    n = doc["d"] ** 2
    i, j = rng.choice(n, size=2, replace=False)
    doc["entries"][i * n + j][0] += 0.25
    return doc


def _negative_eigenvalue(doc: dict, rng, shift: float = 3.0) -> dict:
    n = doc["d"] ** 2
    i, j = rng.choice(n, size=2, replace=False)
    doc["entries"][i * n + i][0] -= shift  # the trace stays 1, a diagonal entry goes below 0
    doc["entries"][j * n + j][0] += shift
    return doc


def _scaled(doc: dict, rng) -> dict:
    factor = float(rng.choice([0.0, 0.5, 2.0, -1.0, 1e300]))
    doc["entries"] = [[re * factor, im * factor] for re, im in doc["entries"]]
    return doc


def _wrong_length(doc: dict, rng) -> dict:
    cut = int(rng.integers(1, len(doc["entries"])))
    doc["entries"] = doc["entries"][:-cut] if rng.integers(2) else doc["entries"] + doc["entries"][:cut]
    return doc


def _wrong_shape(doc: dict, rng) -> dict:
    k, _ = _at(doc, rng)
    doc["entries"][k] = [[1.0], [1.0, 2.0, 3.0], 7.0, None, "0.1", [None, 0.0], [[[0.0]]], []][int(rng.integers(8))]
    return doc


def _spelled_number(doc: dict, rng) -> dict:
    """One part as a JSON string or boolean that numpy reads as the same
    number, so the document is a valid state unless parts must be numbers."""
    if rng.integers(2):
        k, part = _at(doc, rng)
        doc["entries"][k][part] = repr(doc["entries"][k][part])
    else:
        n = doc["d"] ** 2
        doc["entries"][int(rng.integers(n)) * (n + 1)][1] = False  # a diagonal entry's imaginary part, 0.0
    return doc


def _bad_d(doc: dict, rng) -> dict:
    doc["d"] = [
        10 ** int(rng.integers(3, 1200)),
        -(10 ** int(rng.integers(1, 400))),
        doc["d"] + 1,
        doc["d"] - 1,
        0,
        float(doc["d"]),
        2.5,
        str(doc["d"]),
        None,
        True,
        [doc["d"]],
    ][int(rng.integers(11))]
    return doc


def _bad_entries(doc: dict, rng) -> dict:
    doc["entries"] = [5, None, "entries", {"0": [1.0, 0.0]}, 1.5, True][int(rng.integers(6))]
    return doc


_DOC_MUTATIONS = (
    lambda doc, rng: _set(doc, rng, float(rng.choice([np.nan, np.inf, -np.inf]))),
    lambda doc, rng: _set(doc, rng, int("9" * 400)),  # a float64 OverflowError
    lambda doc, rng: _set(doc, rng, float(rng.choice([1e308, -1e308]))),
    _hermitian_defect,
    _negative_eigenvalue,
    lambda doc, rng: _negative_eigenvalue(doc, rng, 1.7e308),  # Hermitian, trace 1, too large to solve
    _scaled,
    _wrong_length,
    _wrong_shape,
    _bad_d,
    _bad_entries,
    lambda doc, rng: [doc],
    lambda doc, rng: {"d": doc["d"]},
    _spelled_number,
)


def _text(d: int, index: int, rng) -> bytes:
    """A malformed document as bytes: a mutated valid one, or a broken encoding."""
    kind = int(rng.integers(len(_DOC_MUTATIONS) + 4))
    if kind < len(_DOC_MUTATIONS):
        return json.dumps(_DOC_MUTATIONS[kind](_doc(d, index), rng)).encode()
    raw = json.dumps(_doc(d, index)).encode()
    if kind == len(_DOC_MUTATIONS):
        return b"\xff\xfe" + raw  # not UTF-8
    if kind == len(_DOC_MUTATIONS) + 1:
        depth = 100_000
        return b'{"d": 2, "entries": ' + b"[" * depth + b"]" * depth + b"}"
    if kind == len(_DOC_MUTATIONS) + 2:
        return raw[: int(rng.integers(len(raw)))]
    flips = rng.integers(len(raw), size=int(rng.integers(1, 6)))
    buf = bytearray(raw)
    for at in flips:
        buf[at] = int(rng.integers(256))
    return bytes(buf)


def _analyze(path: str, capsys) -> tuple[int, str]:
    code = main(["analyze", path])
    return code, capsys.readouterr().err


def _assert_clean(code: int, err: str, what: str) -> None:
    assert code in (EXIT_OK, EXIT_VALIDATION), what
    assert "Traceback" not in err, what
    if code == EXIT_VALIDATION:
        assert err.startswith("error:") and err.count("\n") == 1, (what, err)


@pytest.mark.parametrize("seed", [0, 1])
def test_analyze_fuzzed_documents_exit_0_or_2(tmp_path, capsys, seed):
    rng = np.random.default_rng([20261018, seed])
    path = tmp_path / "state.json"
    for case in range(150):
        data = _text(int(rng.integers(2, 4)), case, rng)
        path.write_bytes(data)
        code, err = _analyze(str(path), capsys)
        _assert_clean(code, err, f"seed {seed} case {case}: {data[:120]!r}")


def test_analyze_each_named_malformation_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(7)
    path = tmp_path / "state.json"
    for i, mutate in enumerate(_DOC_MUTATIONS):
        path.write_text(json.dumps(mutate(_doc(2 + i % 2, i), rng)))
        code, err = _analyze(str(path), capsys)
        assert code == EXIT_VALIDATION, (i, err)
        _assert_clean(code, err, f"mutation {i}")
    for data in (
        b"\xff\xfe" + json.dumps(_doc(2, 0)).encode(),
        b"[" * 100_000 + b"]" * 100_000,
        b'{"d": 2, "entries": [[' + b"9" * 5000 + b", 0]]}",  # over the 4300-digit int limit
        json.dumps({"d": 10**1100, "entries": []}).encode(),  # d^4 too long to print
    ):
        path.write_bytes(data)
        code, err = _analyze(str(path), capsys)
        assert code == EXIT_VALIDATION, err
        _assert_clean(code, err, repr(data[:40]))
    for bad_path in (tmp_path, tmp_path / "missing.json"):
        code, err = _analyze(str(bad_path), capsys)
        assert code == EXIT_VALIDATION
        _assert_clean(code, err, str(bad_path))


def test_analyze_unmutated_documents_exit_0(tmp_path, capsys):
    path = tmp_path / "state.json"
    for d in (2, 3):
        path.write_text(json.dumps(_doc(d, d)))
        code, err = _analyze(str(path), capsys)
        assert code == EXIT_OK, err

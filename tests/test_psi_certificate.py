"""The unitriangular certificate of Hermite reciprocity: it holds on every
psi the package builds and fails on mutated matrices; the CLI and the
selfcheck suite read it and rank no psi."""

import json

import numpy as np
import pytest

from syzygy import cli
from syzygy.exactla import GF, QQ, ExactMatrix
from syzygy.hermite import psi_map, unitriangular
from syzygy.reps import RepMap


def test_certificate_holds_on_every_psi():
    for total in range(15):
        for d in range(total + 1):
            assert unitriangular(psi_map(d, total - d)), (d, total - d)
    # entries past int64 (object values)
    assert psi_map(80, 2).matrix.val.dtype == object
    assert unitriangular(psi_map(80, 2))


def _with(pm: RepMap, row, col, val, name) -> RepMap:
    """pm with its matrix replaced by the coordinates (row, col, val)."""
    m = ExactMatrix(pm.matrix.rows, pm.matrix.cols, (row, col, val))
    return RepMap(pm.source, pm.target, m, name)


def _mutations(pm: RepMap):
    """Three weight-graded matrices that break the certificate: an entry
    after the last one of a column, in a row of the same weight; a
    leading entry of 2; and a column replaced by a copy of another of
    the same weight, so that two columns share a leading row."""
    m, tw, sw = pm.matrix, pm.target.weights, pm.source.weights
    last = m.starts[1:] - 1
    lead = m.row[last]
    c, r = next((c, r) for c in range(m.cols) for r in range(lead[c] + 1, m.rows)
                if tw[r] == tw[lead[c]])
    below = _with(pm, np.append(m.row, r), np.append(m.col, c), np.append(m.val, 1), "below")
    val = m.val.copy()
    val[last[c]] = 2
    two = _with(pm, m.row, m.col, val, "two")
    a, b = next((a, b) for a in range(m.cols) for b in range(a + 1, m.cols) if sw[a] == sw[b])
    keep, run = m.col != b, slice(m.starts[a], m.starts[a + 1])
    shared = _with(pm, np.append(m.row[keep], m.row[run]),
                   np.append(m.col[keep], np.full(run.stop - run.start, b)),
                   np.append(m.val[keep], m.val[run]), "shared")
    return [below, two, shared]


@pytest.mark.parametrize("d, i", [(3, 3), (4, 2)])
def test_mutations_fail_the_certificate(d, i):
    for bad in _mutations(psi_map(d, i)):
        assert not unitriangular(bad), bad.name


def _rank_spy(monkeypatch):
    calls, real = [], RepMap.rank
    monkeypatch.setattr(RepMap, "rank", lambda self, f: calls.append(f) or real(self, f))
    return calls


def _hermite(d, i, char, capsys):
    code = cli.main(["hermite", "--d", str(d), "--i", str(i), "--char", str(char),
                     "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("d, i", [(3, 3), (4, 2)])
@pytest.mark.parametrize("char", [0, 2, 3])
def test_hermite_reads_bijective_from_the_certificate(monkeypatch, capsys, d, i, char):
    calls = _rank_spy(monkeypatch)
    code, out = _hermite(d, i, char, capsys)
    assert (code, out["bijective"], out["pass"]) == (cli.EXIT_OK, True, True)
    for bad in _mutations(psi_map(d, i)):
        monkeypatch.setattr(cli, "psi_map", lambda dd, ii, bad=bad: bad)
        code, out = _hermite(d, i, char, capsys)
        assert (code, out["bijective"], out["pass"]) == (cli.EXIT_INVARIANT, False, False), bad.name
    assert calls == []


def test_selfcheck_suite_fails_without_the_certificate(monkeypatch):
    suite = dict(cli._selfcheck_suites(3))["hermite"]
    calls = _rank_spy(monkeypatch)
    suite()
    bad = _mutations(psi_map(3, 3))[0]
    monkeypatch.setattr(cli, "psi_map", lambda d, i: bad if (d, i) == (3, 3) else psi_map(d, i))
    with pytest.raises(AssertionError, match=r"psi\(3,3\) fails its certificate"):
        suite()
    assert calls == []

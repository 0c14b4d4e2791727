"""The left-looking GF(p) engine (`exactla._rank_gf_f64`) against the
int64 echelon form: ExactMatrix sources with int64 values and with values
past int64, wide and tall shapes, zero column blocks, full short sides
reached early and deficient ranks, in float32 and float64; and a spy
that no column block after the one completing the rank is read."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzygy import exactla
from syzygy.exactla import (_F32_SAFE, _F64_SAFE, _GF_BLOCK, _carrier, _f64_fits,
                            _rank_gf_f64, _rref_gf)

from _oracles import exact_of

# float32 at 2..199 (197 and 199 with blocks of 96 and bulk reductions
# every 11 pivots), float64 from 211 to the largest prime of the engine
PRIMES = (2, 3, 5, 101, 197, 199, 211, 8_388_593)


def _width(p):
    """The engine's widest block at p."""
    safe = _F32_SAFE if _carrier(p) == np.float32 else _F64_SAFE
    return max(w for w in range(_GF_BLOCK, 257, _GF_BLOCK) if _f64_fits(p - 1, w, p, safe))


@st.composite
def _planted(draw, p):
    """(source, residues): a short x long matrix of planted rank r mod
    p, wide or tall, over two to four engine blocks, or with a side 0.
    Its rank is full early (r = short, the first columns independent),
    deficient (r < short), or at most r with a zero band of a whole
    block."""
    w = _width(p)
    long = draw(st.integers(w + 1, 4 * w if w < 256 else 2 * w + 40))
    short = draw(st.integers(0, min(long, 160)))
    if draw(st.integers(0, 19)) == 0:
        long = 0 if draw(st.booleans()) else long
        short = 0
    kind = draw(st.sampled_from(("full early", "deficient", "zero block")))
    top = max(short - (kind == "deficient"), 0)
    r = short if kind == "full early" else draw(st.integers(0, top))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = rng.integers(0, p, (short, r)), rng.integers(0, p, (r, long))
    a = np.zeros((short, long), dtype=np.int64)
    for i in range(r):                      # reduce each product: no overflow
        a = (a + np.outer(u[:, i], v[i]) % p) % p
    if kind == "full early" and short:
        low = rng.integers(0, p, (short, short)) * np.tri(short, k=-1, dtype=np.int64)
        a[:, :short] = (low + np.eye(short, dtype=np.int64)) % p    # unitriangular
    if kind == "zero block" and long:
        b = -(-long // -(-long // w))
        z = draw(st.integers(0, (long - 1) // b)) * b
        a[:, z:z + b] = 0
    res = a.copy()
    if draw(st.booleans()):
        a = a.T
        res = res.T
    a = a + p * rng.integers(-3, 4, a.shape)          # any integers with these residues
    if draw(st.booleans()):
        a = a.astype(object)
        past = rng.random(a.shape) < 0.05
        a[past] += p * 2**64
    return exact_of(a), res


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_left_looking_rank_matches_the_echelon_form(p, data):
    src, res = data.draw(_planted(p))
    want = len(_rref_gf(res.astype(np.int64), p)[1])
    assert _rank_gf_f64(src, p) == want


def _reads(monkeypatch):
    """The column ranges the engine reads from its source, in order."""
    reads, real = [], exactla._gf_columns

    def spy(m, c0, c1, p, out):
        reads.append((c0, c1))
        return real(m, c0, c1, p, out)

    monkeypatch.setattr(exactla, "_gf_columns", spy)
    return reads


def test_no_block_after_the_full_rank_is_read(monkeypatch):
    # 40 rows whose first two blocks of 256 are zero and whose third has
    # full row rank: the engine reads the three and stops, at p = 5
    # (float32) and p = 211 (float64)
    rng = np.random.default_rng(3)
    a = rng.integers(0, 5, (40, 10 * 256))
    a[:, :512] = 0
    src = exact_of(a)
    for p in (5, 211):
        reads = _reads(monkeypatch)
        assert _rank_gf_f64(src, p) == 40
        assert reads == [(0, 256), (256, 512), (512, 768)], p
    # a tall source is read by rows: 300 need the two blocks after the
    # zero ones
    t = rng.integers(0, 5, (10 * 256, 300))
    t[:512] = 0
    reads = _reads(monkeypatch)
    assert _rank_gf_f64(exact_of(t), 5) == 300
    assert reads == [(0, 256), (256, 512), (512, 768), (768, 1024)]
    # at the largest prime the blocks are 30 wide here: 40 pivots need two
    reads = _reads(monkeypatch)
    b = rng.integers(0, 8_388_593, (40, 300))
    assert _rank_gf_f64(exact_of(b), 8_388_593) == 40
    assert reads == [(0, 30), (30, 60)]

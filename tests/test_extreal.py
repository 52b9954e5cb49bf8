import pytest

from qcx.extreal import NEG_INF, POS_INF, ext_combo, ext_inv, ext_mul, ext_sub


def test_conventions():
    assert ext_mul(0.0, POS_INF) == 0.0
    assert ext_mul(0.0, NEG_INF) == 0.0
    assert ext_mul(POS_INF, 0.0) == 0.0
    assert ext_inv(0.0) == POS_INF
    assert ext_inv(POS_INF) == 0.0
    assert ext_inv(NEG_INF) == 0.0


def test_sub_degeneracy():
    assert ext_sub(POS_INF, POS_INF) == (POS_INF, True)
    assert ext_sub(NEG_INF, NEG_INF) == (POS_INF, True)
    assert ext_sub(POS_INF, 1.0) == (POS_INF, False)
    assert ext_sub(1.0, POS_INF) == (NEG_INF, False)
    assert ext_sub(3.0, 1.0) == (2.0, False)


def test_combo_weights():
    assert ext_combo(0.0, POS_INF, 2.0) == 2.0
    assert ext_combo(1.0, POS_INF, 2.0) == POS_INF
    assert ext_combo(0.5, POS_INF, 2.0) == POS_INF
    assert ext_combo(0.25, 4.0, 8.0) == pytest.approx(7.0)

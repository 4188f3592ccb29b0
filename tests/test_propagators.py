"""Phi functions and semigroup actions: series branches, augmented
exponentials for defective generators, and batched block stacks."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from mildflow import propagators
from mildflow.propagators import (
    InstabilityError,
    Propagator,
    apply_block_factor,
    eigen_blocks,
    phi,
)
from oracles import (
    decompose,
    phi1_closed_form,
    phi2_closed_form,
    phi_action_dense,
)


def taylor_phi(z, order, terms=30):
    return math.fsum(z ** k / math.factorial(k + order) for k in range(terms))


def test_phi_values_at_zero():
    assert phi(np.array([0.0]), 1)[0] == pytest.approx(1.0, abs=0.0)
    assert phi(np.array([0.0]), 2)[0] == pytest.approx(0.5, abs=0.0)


@pytest.mark.parametrize("z", [1e-6, 1e-3, 0.1, 0.2, 0.24])
def test_phi_series_branch_matches_taylor(z):
    assert abs(phi(np.array([z]), 1)[0] - taylor_phi(z, 1)) < 1e-15
    assert abs(phi(np.array([z]), 2)[0] - taylor_phi(z, 2)) < 1e-15


def test_phi_identity_across_branch_threshold():
    # phi1(z) = 1 + z phi2(z) ties the two branches together
    z = np.array([1e-12, 0.01, 0.2, 0.2499, 0.2501, 0.5, 3.0, -4.0,
                  0.2j, 0.3j, 1 + 1j, -2 + 0.7j])
    defect = np.max(np.abs(phi(z, 1) - 1.0 - z * phi(z, 2)))
    assert defect < 1e-14


def test_phi_formula_branch_large_argument():
    z = np.array([2.0])
    assert phi(z, 1)[0] == pytest.approx((math.exp(2.0) - 1.0) / 2.0, rel=1e-15)
    assert phi(z, 2)[0] == pytest.approx((math.exp(2.0) - 3.0) / 4.0, rel=1e-14)


def test_phi_matches_the_closed_forms_bit_for_bit():
    # the one phi body against separate phi1/phi2 bodies, on both
    # branches, on and next to |z| = 0.25 and up to Re z = 600
    rng = np.random.default_rng(5)
    edge = np.array([0.25, -0.25, 0.25j, -0.25j, 0.0])
    z = np.concatenate([
        rng.uniform(-50, 50, 40_000) + 1j * rng.uniform(-50, 50, 40_000),
        0.5 * rng.uniform(-1, 1, 40_000) + 0.5j * rng.uniform(-1, 1, 40_000),
        0.25 * np.exp(2j * np.pi * rng.uniform(size=10_000)),
        rng.uniform(-700, 600, 10_000),
        edge, np.nextafter(edge.real, 1.0), np.nextafter(edge.real, -1.0)])
    assert z.size >= 100_000
    assert phi(z, 1).tobytes() == phi1_closed_form(z).tobytes()
    assert phi(z, 2).tobytes() == phi2_closed_form(z).tobytes()
    for values in (z, z.real):
        assert phi(values, 0).tobytes() == np.exp(values).tobytes()


def test_augmented_phi_actions_match_eigen_route():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6))
    w = rng.standard_normal((6, 3))
    lam, vecs = np.linalg.eig(a)
    inv = np.linalg.inv(vecs)
    ref1 = ((vecs * phi(lam, 1)) @ inv).real @ w
    ref2 = ((vecs * phi(lam, 2)) @ inv).real @ w
    assert np.max(np.abs(phi_action_dense(a, w, 1) - ref1)) < 1e-12
    assert np.max(np.abs(phi_action_dense(a, w, 2) - ref2)) < 1e-12


def test_augmented_phi_single_vector_shape():
    rng = np.random.default_rng(8)
    a = -np.eye(4) + 0.1 * rng.standard_normal((4, 4))
    v = rng.standard_normal(4)
    out = phi_action_dense(a, v, 1)
    assert out.shape == (4,)


def test_dense_symmetric_uses_orthogonal_route():
    rng = np.random.default_rng(1)
    s = rng.standard_normal((5, 5))
    s = -(s @ s.T) - np.eye(5)
    prop = Propagator.from_matrix(s)
    assert not prop.defective
    assert np.array_equal(prop.vectors_inv, prop.vectors.T)  # eigh, not eig + inv
    v = rng.standard_normal(5)
    assert np.max(np.abs(prop.propagate(0.3, v) - expm(0.3 * s) @ v)) < 1e-13
    assert prop.propagate(0.3, v).dtype == np.float64


def test_dense_defective_jordan_block_fallback():
    jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
    prop = Propagator.from_matrix(jordan)
    assert prop.defective
    v = np.array([1.0, 2.0])
    t = 0.7
    assert np.max(np.abs(prop.propagate(t, v) - expm(t * jordan) @ v)) < 1e-14
    p1 = sum(np.linalg.matrix_power(t * jordan, k) / math.factorial(k + 1)
             for k in range(30))
    p2 = sum(np.linalg.matrix_power(t * jordan, k) / math.factorial(k + 2)
             for k in range(30))
    assert np.max(np.abs(prop.phi1_action(t, v) - p1 @ v)) < 1e-14
    assert np.max(np.abs(prop.phi2_action(t, v) - p2 @ v)) < 1e-14


def test_dense_nonsymmetric_phi_actions():
    rng = np.random.default_rng(3)
    a = -2.0 * np.eye(6) + 0.3 * rng.standard_normal((6, 6))
    prop = Propagator.from_matrix(a)
    assert not prop.defective
    v = rng.standard_normal(6)
    assert np.max(np.abs(prop.phi1_action(0.4, v)
                         - phi_action_dense(0.4 * a, v, 1))) < 1e-12
    assert np.max(np.abs(prop.phi2_action(0.4, v)
                         - phi_action_dense(0.4 * a, v, 2))) < 1e-12


def test_semigroup_property_dense():
    rng = np.random.default_rng(4)
    a = -np.eye(5) + 0.2 * rng.standard_normal((5, 5))
    prop = Propagator.from_matrix(a)
    v = rng.standard_normal(5)
    left = prop.propagate(0.2, prop.propagate(0.3, v))
    assert np.max(np.abs(left - prop.propagate(0.5, v))) < 1e-12


def test_multiplier_propagator_real_output():
    lam = np.array([-1.0, -4.0, -9.0])
    prop = Propagator(lam)
    v = np.array([1.0, 1.0, 1.0])
    out = prop.propagate(0.5, v)
    assert out.dtype == np.float64
    assert np.allclose(out, np.exp(0.5 * lam))


def _random_stack(rng, modes=3, m=4):
    mats = np.stack([-np.eye(m) * (i + 1) + 0.1 * rng.standard_normal((m, m))
                     for i in range(modes)])
    lams, vecs, invs = [], [], []
    for block in mats:
        lam, v = np.linalg.eig(block)
        lams.append(lam)
        vecs.append(v)
        invs.append(np.linalg.inv(v))
    return Propagator(np.stack(lams), np.stack(vecs), np.stack(invs),
                      [False] * modes, mats), mats


def test_mode_stack_matches_per_block_expm():
    rng = np.random.default_rng(5)
    stack, mats = _random_stack(rng)
    u = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    out = stack.propagate(0.3, u)
    for i, block in enumerate(mats):
        assert np.max(np.abs(out[i] - expm(0.3 * block) @ u[i])) < 1e-12


def test_mode_stack_semigroup_and_factor_cache():
    rng = np.random.default_rng(6)
    stack, _ = _random_stack(rng)
    u = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    two_step = stack.propagate(0.2, stack.propagate(0.3, u))
    assert np.max(np.abs(two_step - stack.propagate(0.5, u))) < 1e-12
    e, p1, p2 = stack.step_factors(0.25)
    assert stack.step_factors(0.25)[0] is e  # cached object
    assert np.max(np.abs(apply_block_factor(e, u) - stack.propagate(0.25, u))) < 1e-12
    assert np.max(np.abs(apply_block_factor(p1, u) - stack.phi1_action(0.25, u))) < 1e-12
    assert np.max(np.abs(apply_block_factor(p2, u) - stack.phi2_action(0.25, u))) < 1e-12


def test_mode_stack_defective_block_fallback():
    jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
    healthy = np.diag([-2.0, -3.0])
    lam_h, v_h = np.linalg.eigh(healthy)
    # defective slot gets placeholder eigen data; mask routes around it
    stack = Propagator(
        np.stack([lam_h.astype(complex), np.array([-1.0, -1.0], dtype=complex)]),
        np.stack([v_h.astype(complex), np.eye(2, dtype=complex)]),
        np.stack([v_h.T.astype(complex), np.eye(2, dtype=complex)]),
        [False, True],
        np.stack([healthy, jordan]),
    )
    u = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    out = stack.propagate(0.6, u)
    assert np.max(np.abs(out[1] - expm(0.6 * jordan) @ u[1])) < 1e-13
    e, p1, _ = stack.step_factors(0.5)
    p1_ref = sum(np.linalg.matrix_power(0.5 * jordan, k) / math.factorial(k + 1)
                 for k in range(30))
    assert np.max(np.abs(p1[1] - p1_ref)) < 1e-13


def test_overflow_guard_raises_instability():
    prop = Propagator(np.array([800.0]))
    with pytest.raises(InstabilityError):
        prop.propagate(1.0, np.array([1.0]))


def test_propagate_rejects_nothing_at_time_zero():
    prop = Propagator(np.array([-3.0, -7.0]))
    v = np.array([2.0, 5.0])
    assert np.allclose(prop.propagate(0.0, v), v)


def _assert_factors_match_actions(prop, u, dt):
    e, p1, p2 = prop.step_factors(dt)
    for factor, action in ((e, prop.propagate), (p1, prop.phi1_action),
                           (p2, prop.phi2_action)):
        out = apply_block_factor(factor, u)
        assert out.dtype == action(dt, u).dtype
        assert np.max(np.abs(out - action(dt, u))) < 1e-12


def test_diagonal_factors_are_real_multipliers():
    prop = Propagator(np.array([-1.0, -4.0, -9.0]))
    e, p1, p2 = prop.step_factors(0.3)
    assert e.shape == (3,) and not any(np.iscomplexobj(f) for f in (e, p1, p2))
    _assert_factors_match_actions(prop, np.array([1.0, -2.0, 0.5]), 0.3)
    _assert_factors_match_actions(prop, np.array([1.0, 2j, 0.5 - 1j]), 0.3)


def test_dense_factors_match_actions():
    rng = np.random.default_rng(8)
    s = rng.standard_normal((5, 5))
    nonsym = -3.0 * np.eye(5) + 0.5 * rng.standard_normal((5, 5))
    for matrix in (-(s @ s.T) - np.eye(5), nonsym):
        prop = Propagator.from_matrix(matrix)
        assert not prop.defective
        assert not any(np.iscomplexobj(f) for f in prop.step_factors(0.2))
        _assert_factors_match_actions(prop, rng.standard_normal(5), 0.2)


def test_dense_defective_factors_fall_back_to_expm():
    prop = Propagator.from_matrix(np.array([[-1.0, 1.0], [0.0, -1.0]]))
    assert prop.defective
    _assert_factors_match_actions(prop, np.array([0.3, -1.2]), 0.4)


def test_mode_stack_defective_factors_match_actions():
    jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
    healthy = np.diag([-2.0, -3.0])
    lam_h, v_h = np.linalg.eigh(healthy)
    stack = Propagator(
        np.stack([lam_h.astype(complex), np.array([-1.0, -1.0], dtype=complex)]),
        np.stack([v_h.astype(complex), np.eye(2, dtype=complex)]),
        np.stack([v_h.T.astype(complex), np.eye(2, dtype=complex)]),
        [False, True],
        np.stack([healthy, jordan]),
    )
    u = np.array([[1.0, 2.0], [3.0 - 1j, 4.0]])
    _assert_factors_match_actions(stack, u, 0.5)


JORDAN3 = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])


def _stack_of(blocks):
    """Block-stack propagator built block by block with decompose()."""
    parts = [decompose(block) for block in blocks]
    lam, vecs, invs = (np.stack([part[i] for part in parts]) for i in range(3))
    return Propagator(lam, vecs, invs, [part[4] for part in parts], blocks)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_stacked_decompose_matches_per_block_with_defective_block():
    rng = np.random.default_rng(14)
    blocks = np.stack([-np.eye(3) + 0.4 * (rng.standard_normal((3, 3))
                                           + 1j * rng.standard_normal((3, 3))),
                       JORDAN3,
                       -2.0 * np.eye(3) + 0.4j * rng.standard_normal((3, 3))])
    lam, vecs, invs, condition, defective = decompose(blocks)
    assert defective.tolist() == [False, True, False]
    for i, block in enumerate(blocks):
        want = decompose(block)
        for got, ref in zip((lam, vecs, invs), want[:3]):
            _assert_same_bits(got[i], ref)
        assert condition[i] == want[3] and defective[i] == want[4]
    assert np.array_equal(vecs[1], np.eye(3)) and np.array_equal(invs[1], np.eye(3))


def test_stacked_decompose_real_symmetric_takes_eigh():
    rng = np.random.default_rng(15)
    g = rng.standard_normal((4, 5, 5))
    blocks = g + g.swapaxes(-1, -2) - 10.0 * np.eye(5)  # exactly symmetric
    lam, vecs, invs, condition, defective = decompose(blocks)
    _assert_same_bits(invs, vecs.swapaxes(-1, -2))
    assert np.array_equal(condition, np.ones(4)) and not defective.any()
    for i, block in enumerate(blocks):
        want = decompose(block)
        for got, ref in zip((lam, vecs, invs), want[:3]):
            _assert_same_bits(got[i], ref)
        assert (want[3], want[4]) == (1.0, False)


def test_defective_block_step_factors_take_one_expm(monkeypatch):
    # e^{hA}, phi1(hA) and phi2(hA) of a defective block are the top block
    # row of one augmented exponential, not three separate ones
    calls = []
    monkeypatch.setattr(propagators, "expm",
                        lambda a: calls.append(a.shape) or expm(a))
    blocks = np.stack([np.diag([-2.0, -3.0, -4.0]), JORDAN3])
    assert eigen_blocks(blocks)[3].tolist() == [False, True]
    prop = Propagator.from_matrix(blocks)
    dt = 0.5
    factors = prop.step_factors(dt)
    assert calls == [(9, 9)]
    jordan = dt * JORDAN3
    for order, factor in enumerate(factors):
        taylor = sum(np.linalg.matrix_power(jordan, k) / math.factorial(k + order)
                     for k in range(30))
        want = expm(jordan) if order == 0 else \
            phi_action_dense(jordan, np.eye(3), order)
        assert np.max(np.abs(factor[1] - taylor)) < 1e-13
        assert np.max(np.abs(factor[1] - want)) < 1e-12
    assert np.max(np.abs(factors[0][0] - expm(dt * blocks[0]))) < 1e-12


def _generator(kind):
    """(propagator, its blocks as a (blocks, m, m) stack of dense matrices)."""
    rng = np.random.default_rng(12)
    complex_blocks = np.stack([
        -(i + 1) * np.eye(3) + 0.3 * (rng.standard_normal((3, 3))
                                      + 1j * rng.standard_normal((3, 3)))
        for i in range(3)])
    if kind == "multiplier":
        lam = np.array([-1.0, -4.0, -9.0])
        return Propagator(lam), np.diag(lam)[None]
    if kind == "block":
        block = -2.0 * np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        return Propagator.from_matrix(block), block[None]
    if kind == "defective block":
        return Propagator.from_matrix(JORDAN3), JORDAN3[None]
    if kind == "stack":
        return _stack_of(complex_blocks), complex_blocks
    blocks = np.stack([complex_blocks[0], JORDAN3, complex_blocks[2]])
    return _stack_of(blocks), blocks


@pytest.mark.parametrize("kind", ["multiplier", "block", "defective block",
                                  "stack", "defective stack"])
def test_factors_and_actions_match_expm_for_every_generator_shape(kind):
    prop, blocks = _generator(kind)
    assert prop.defective == ("defective" in kind)
    rng = np.random.default_rng(13)
    shape = prop.lam.shape
    dt = 0.3
    for u in (rng.standard_normal(shape),
              rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
        _assert_factors_match_actions(prop, u, dt)
        for order, action in enumerate((prop.propagate, prop.phi1_action,
                                        prop.phi2_action)):
            out = action(dt, u)
            assert np.iscomplexobj(out) == (np.iscomplexobj(blocks)
                                            or np.iscomplexobj(u))
            for block, v, got in zip(blocks, u.reshape(len(blocks), -1),
                                     out.reshape(len(blocks), -1)):
                want = expm(dt * block) @ v if order == 0 else \
                    phi_action_dense(dt * block, v, order)
                assert np.max(np.abs(got - want)) < 1e-12


def test_step_factors_cache_only_the_latest_dt():
    stack, _ = _random_stack(np.random.default_rng(9))
    assert stack.matrices is None  # kept only for defective blocks
    first = stack.step_factors(0.1)
    assert stack.step_factors(0.1) is first
    stack.step_factors(0.2)
    again = stack.step_factors(0.1)
    assert again is not first
    assert all(np.array_equal(a, b) for a, b in zip(again, first))


def test_step_factors_guard_overflow():
    with pytest.raises(InstabilityError):
        Propagator(np.array([800.0])).step_factors(1.0)

import gc
import weakref

import numpy as np
import pytest

from flowop.nnops import (Tensor, _dense_spectral_map, _dft_basis, _idft_basis, add,
                          affine_pointwise, dft_at_positions, idft_at,
                          leaky_relu, mode_multiply, no_record, param, spectral_conv,
                          time_embedding, weighted_l1)

from checks import grad_check


def _rand(rng, *shape):
    return rng.standard_normal(shape)


def dft_truncated(u: Tensor, J: int) -> Tensor:
    """One-sided unnormalized DFT over the temporal axis, modes 0..J-1."""
    M = u.value.shape[-2]
    if J > M // 2 + 1:
        raise ValueError(f"J={J} exceeds M//2+1={M // 2 + 1}")
    return dft_at_positions(u, J, np.arange(M), M)


def sum_squares(u: Tensor) -> Tensor:
    out = np.sum(np.abs(u.value) ** 2)

    def bw(g):
        return (2.0 * g * np.conj(u.value) if np.iscomplexobj(u.value) else 2.0 * g * u.value,)

    return Tensor(np.asarray(out), (u,), bw)


# -------------------------------------------------------------- forward math

def test_dft_truncated_matches_fft():
    rng = np.random.default_rng(0)
    for M, J in ((4, 3), (8, 5), (7, 4)):
        u = _rand(rng, M, 6)
        out = dft_truncated(param(u), J).value
        ref = np.fft.fft(u, axis=0)[:J]
        assert np.max(np.abs(out - ref)) < 1e-12


def test_dft_rejects_too_many_modes():
    with pytest.raises(ValueError):
        dft_truncated(param(np.zeros((4, 2))), 4)


def test_dft_at_integer_positions_equals_truncated():
    rng = np.random.default_rng(1)
    u = _rand(rng, 8, 3)
    a = dft_truncated(param(u), 5).value
    b = dft_at_positions(param(u), 5, np.arange(8), 8).value
    assert np.array_equal(a, b)


def test_idft_full_round_trip():
    # maximal one-sided mode count reconstructs a real signal exactly
    rng = np.random.default_rng(2)
    for M in (4, 8, 16):
        u = _rand(rng, M, 5)
        u_hat = dft_truncated(param(u), M // 2 + 1)
        back = idft_at(u_hat, M, np.arange(M)).value
        assert np.max(np.abs(back - u)) < 1e-12


def test_idft_truncation_is_spectral_projection():
    # dropping modes >= J equals zeroing them in a full FFT round trip
    rng = np.random.default_rng(3)
    M, J = 8, 3
    u = _rand(rng, M, 2)
    out = idft_at(dft_truncated(param(u), J), M, np.arange(M)).value
    full = np.fft.fft(u, axis=0)
    full[J:M - J + 1] = 0.0
    ref = np.real(np.fft.ifft(full, axis=0))
    assert np.max(np.abs(out - ref)) < 1e-12


def test_idft_fractional_query_single_mode():
    # one-sided interpolant of mode 1 on an M-point grid is (2/M) cos(2 pi q / M)
    M = 8
    u_hat = np.zeros((2, 1), dtype=complex)
    u_hat[1, 0] = 1.0
    q = np.array([0.0, 1.25, 3.5, 6.75])
    out = idft_at(param(u_hat), M, q).value[:, 0]
    assert np.allclose(out, (2.0 / M) * np.cos(2 * np.pi * q / M), atol=1e-14)


def test_quadrature_dft_converges_on_dense_positions():
    # sampling a band-limited signal at Q >> M positions recovers the
    # same leading modes up to quadrature weighting
    M, J, Q = 8, 3, 4096
    rng = np.random.default_rng(4)
    u = _rand(rng, M, 1)
    coarse = dft_truncated(param(u), M // 2 + 1)
    q = np.linspace(0, M, Q, endpoint=False)
    dense = idft_at(coarse, M, q)
    redone = dft_at_positions(dense, J, q, M).value
    ref = dft_truncated(param(u), J).value
    assert np.max(np.abs(redone - ref)) < 1e-10


def test_mode_multiply_matches_einsum():
    rng = np.random.default_rng(5)
    J, K, L, B = 4, 3, 5, 7
    R = _rand(rng, J, K, L) + 1j * _rand(rng, J, K, L)
    u = _rand(rng, B, J, L) + 1j * _rand(rng, B, J, L)
    out = mode_multiply(param(R), param(u)).value
    ref = np.einsum("jkl,bjl->bjk", R, u)
    assert np.max(np.abs(out - ref)) < 1e-12


def test_mode_multiply_shape_check():
    with pytest.raises(ValueError):
        mode_multiply(param(np.zeros((3, 2, 2), complex)),
                      param(np.zeros((4, 2), complex)))


def test_affine_pointwise_values():
    W = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
    b = np.array([0.1, 0.2, 0.3])
    u = np.array([[1.0, 1.0], [2.0, -1.0]])
    out = affine_pointwise(param(W), param(b), param(u)).value
    assert np.allclose(out, u @ W.T + b)


def test_leaky_relu_values():
    u = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    out = leaky_relu(param(u), slope=0.1).value
    assert np.allclose(out, [-0.2, -0.05, 0.0, 0.5, 2.0])


def _spectral_chain(R, u, positions, M):
    J = R.value.shape[0]
    return idft_at(mode_multiply(R, dft_at_positions(u, J, positions, M)), M, positions)


def _value_and_grads(op, R, u, positions, M, g):
    """op's output and the gradients of sum(g * output) w.r.t. R and u."""
    Rt, ut = param(R), param(u)
    out = op(Rt, ut, positions, M)
    Tensor(np.asarray(np.sum(g * out.value)), (out,), lambda s: (s * g,)).backward()
    return out.value, Rt.grad, ut.grad


def _spectral_einsum(R, u, positions, M, g):
    """Output and gradients of sum(g * Re B^T R F u), from the complex bases."""
    J, K, C = R.shape
    Q = positions.size
    F, B = _dft_basis(J, positions, M), _idft_basis(J, M, positions)
    out = np.real(np.einsum("jn,jkl,jm,...ml->...nk", B, R, F, u))
    gu = np.real(np.einsum("...nk,jn,jkl,jm->...ml", g, B, R, F))
    gR = np.conj(np.einsum("bnk,jn,jm,bml->jkl", g.reshape(-1, Q, K), B, F,
                           u.reshape(-1, Q, C)))
    return out, gR, gu


def test_spectral_conv_matches_reference_chain():
    # both sides of the dense/factored choice, batched and unbatched, at
    # integer, fractional and dense query positions; the factored side runs
    # the chain itself, so there the reference is an einsum of the bases
    rng = np.random.default_rng(10)
    M, J, C, K = 4, 3, 5, 6
    assert [_dense_spectral_map(Q, J) for Q in (M, 2 * M, 64)] == [True, False, False]
    for Q in (M, 2 * M, 64):
        positions = np.arange(Q) * M / Q
        for lead in ((), (3,), (2, 3)):
            u = _rand(rng, *lead, Q, C)
            R = _rand(rng, J, K, C) + 1j * _rand(rng, J, K, C)
            g = _rand(rng, *lead, Q, K)
            if Q == M:
                ref = _value_and_grads(_spectral_chain, R, u, positions, M, g)
            else:
                ref = _spectral_einsum(R, u, positions, M, g)
            got = _value_and_grads(spectral_conv, R, u, positions, M, g)
            for a, b in zip(got, ref):
                assert a.shape == b.shape
                assert np.max(np.abs(a - b)) < 1e-12


def test_spectral_conv_shape_check():
    with pytest.raises(ValueError):
        spectral_conv(param(np.zeros((3, 2, 2), complex)), param(np.zeros((5, 2))),
                      np.arange(4.0), 4)


def test_leaky_relu_bit_identical_to_mask_formula():
    # max(u, slope*u) and its mask gradient reproduce u * where(u >= 0, 1, slope)
    rng = np.random.default_rng(11)
    u = np.concatenate([_rand(rng, 64), [0.0, -0.0, 1e-300, -1e-300]])
    g = _rand(rng, u.size)
    for slope in (0, 0.0, 0.01, 0.5):
        mask = np.where(u >= 0, 1.0, slope)
        out = leaky_relu(param(u), slope)
        assert out.value.tobytes() == (u * mask).tobytes()
        assert out._backward(g)[0].tobytes() == (g * mask).tobytes()


def test_no_record_builds_no_graph_and_restores():
    a, b = param(np.ones(2)), param(np.ones(2))
    with pytest.raises(RuntimeError):
        with no_record():
            out = add(a, b)
            assert out._parents == () and out._backward is None
            raise RuntimeError("inside the scope")
    loss = sum_squares(add(a, b))
    loss.backward()
    assert np.allclose(a.grad, 4.0)


def _out_calls(rng):
    """Each op that takes out=, as a function of out, on (2, Q, 3) results;
    spectral_conv on its dense (Q=4) and its factored (Q=8) path."""
    M = 4
    W, b = param(_rand(rng, 3, 5)), param(_rand(rng, 3))
    u5, u3, u8 = param(_rand(rng, 2, 4, 5)), param(_rand(rng, 2, 4, 3)), param(_rand(rng, 2, 8, 3))
    R = param(_rand(rng, 3, 3, 3) + 1j * _rand(rng, 3, 3, 3))
    u_hat = param(_rand(rng, 2, 3, 3) + 1j * _rand(rng, 2, 3, 3))
    e = param(_rand(rng, 4, 3))
    return {
        "affine_pointwise": lambda out: affine_pointwise(W, b, u5, out=out),
        "leaky_relu": lambda out: leaky_relu(u3, 0.1, out=out),
        "add": lambda out: add(u3, e, out=out),
        "spectral_conv": lambda out: spectral_conv(R, u3, np.arange(4.0), M, out=out),
        "spectral_conv_factored": lambda out: spectral_conv(R, u8, np.arange(8) / 2, M,
                                                            out=out),
        "idft_at": lambda out: idft_at(u_hat, M, np.arange(4.0), out=out),
    }


@pytest.mark.parametrize("name", ["affine_pointwise", "leaky_relu", "add", "spectral_conv",
                                  "spectral_conv_factored", "idft_at"])
def test_out_only_without_tape(name):
    # a recorded node keeps its value for backward, so it must own it;
    # under no_record() the op writes its exact result into out
    call = _out_calls(np.random.default_rng(12))[name]
    want = call(None).value
    out = np.empty_like(want)
    with pytest.raises(ValueError, match="no_record"):
        call(out)
    with no_record():
        got = call(out)
        with pytest.raises(ValueError, match="C-contiguous"):
            call(np.empty(want.shape[::-1]).T)
    assert got.value is out
    assert out.tobytes() == want.tobytes()


def test_time_embedding_structure():
    e = time_embedding(0.0, 8)
    assert e.shape == (8,)
    assert np.allclose(e[:4], 0.0)
    assert np.allclose(e[4:], 1.0)
    # frequencies span 1 down to 1e-4 geometrically
    e1 = time_embedding(1.0, 8)
    assert e1[0] == pytest.approx(np.sin(1.0))
    assert e1[3] == pytest.approx(np.sin(1e-4), rel=1e-10)
    with pytest.raises(ValueError):
        time_embedding(0.5, 7)


def test_weighted_l1_value():
    pred = param(np.array([[1.0, 2.0], [3.0, 4.0]]))       # (M=2, d=2)
    target = np.array([[0.0, 2.0], [3.0, 2.0]])
    w = np.array([2.0, 0.5])
    # (1/2) * (2*|1| + 0.5*|2|) = 1.5
    out = weighted_l1(pred, target, w)
    assert out.value == pytest.approx(1.5)
    for bad_target, bad_w in ((target[:1], w), (target, w[:1])):
        with pytest.raises(ValueError, match="loss shape mismatch"):
            weighted_l1(pred, bad_target, bad_w)


def test_weighted_l1_batch_average():
    rng = np.random.default_rng(6)
    p = _rand(rng, 3, 4, 2)
    t = _rand(rng, 3, 4, 2)
    w = np.abs(_rand(rng, 4)) + 0.1
    batched = weighted_l1(param(p), t, w).value
    singles = [weighted_l1(param(p[i]), t[i], w).value for i in range(3)]
    assert batched == pytest.approx(np.mean(singles), rel=1e-12)


# ------------------------------------------------------------------ backward

def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        param(np.zeros(3)).backward()


def test_add_scale_gradients():
    a, b = param(np.array([1.0, 2.0])), param(np.array([3.0, 4.0]))
    loss = sum_squares(add(add(a, a), b))
    loss.backward()
    v = 2 * a.value + b.value
    assert np.allclose(a.grad, 4 * v)
    assert np.allclose(b.grad, 2 * v)


def test_backward_leaves_no_reference_cycle():
    # dropping the loss frees its graph by reference counting alone; a cycle
    # would keep every value and gradient until the cyclic collector ran
    gc.collect()
    gc.disable()
    try:
        a = param(np.array([1.0, 2.0]))
        h = add(a, a)
        value = weakref.ref(h.value)
        loss = sum_squares(h)
        loss.backward()
        del h, loss
        assert value() is None
    finally:
        gc.enable()


def test_broadcast_add_gradient():
    a = param(np.zeros((3, 2)))
    b = param(np.zeros((1, 2)))
    loss = sum_squares(add(add(a, b), param(np.ones((3, 2)))))
    loss.backward()
    assert a.grad.shape == (3, 2)
    assert b.grad.shape == (1, 2)
    assert np.allclose(b.grad, 6.0)


def test_reused_node_accumulates():
    a = param(np.array([2.0]))
    loss = sum_squares(add(a, a))       # (2a)^2, d/da = 8a
    loss.backward()
    assert a.grad[0] == pytest.approx(16.0)


def test_grad_check_affine_chain():
    rng = np.random.default_rng(7)
    W = param(_rand(rng, 3, 2))
    b = param(_rand(rng, 3))
    u = param(_rand(rng, 5, 2))
    t = _rand(rng, 5, 3)
    w = np.abs(_rand(rng, 5)) + 0.2

    def f(ps):
        return weighted_l1(leaky_relu(affine_pointwise(ps[0], ps[1], ps[2])), t, w)

    assert grad_check(f, [W, b, u]) < 1e-6


def test_grad_check_spectral_chain():
    # the full spectral pathway, including complex kernel gradients
    rng = np.random.default_rng(8)
    M, J, C = 4, 3, 3
    u = param(_rand(rng, M, C))
    R = param(_rand(rng, J, C, C) + 1j * _rand(rng, J, C, C))
    t = _rand(rng, M, C)
    w = np.abs(_rand(rng, M)) + 0.2

    def f(ps):
        v = idft_at(mode_multiply(ps[1], dft_truncated(ps[0], J)), M, np.arange(M))
        return weighted_l1(v, t, w)

    assert grad_check(f, [u, R]) < 1e-6


def test_grad_check_spectral_conv():
    rng = np.random.default_rng(12)
    M, J, C = 4, 3, 3
    for Q in (M, 9):
        q = np.sort(rng.uniform(0, M, Q))
        u = param(_rand(rng, 2, Q, C))
        R = param(_rand(rng, J, C, C) + 1j * _rand(rng, J, C, C))
        t = _rand(rng, 2, Q, C)
        w = np.abs(_rand(rng, Q)) + 0.2

        def f(ps):
            return weighted_l1(spectral_conv(ps[1], ps[0], q, M), t, w)

        assert grad_check(f, [u, R]) < 1e-6


def test_grad_check_fractional_queries():
    rng = np.random.default_rng(9)
    M, J, C = 4, 3, 2
    u = param(_rand(rng, M, C))
    q = np.array([0.0, 0.7, 1.9, 3.2])
    t = _rand(rng, 4, C)
    w = np.ones(4)

    def f(ps):
        return weighted_l1(idft_at(dft_truncated(ps[0], J), M, q), t, w)

    assert grad_check(f, [u]) < 1e-6


def test_grad_check_detects_wrong_gradient():
    # a deliberately broken backward rule must be flagged
    u = param(np.array([0.7, -0.3]))

    def f(ps):
        x = ps[0]
        bad = Tensor(x.value ** 2, (x,), lambda g: (g * x.value,))  # missing factor 2
        return Tensor(np.asarray(bad.value.sum()), (bad,),
                      lambda g: (g * np.ones_like(bad.value),))

    assert grad_check(f, [u]) > 0.3

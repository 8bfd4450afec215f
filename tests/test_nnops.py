import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from flowop import nnops
from flowop.nnops import (Tensor, _dense_spectral_map, _dft_basis, _idft_basis, add,
                          affine_pointwise, dft_at_positions, empty, idft_at,
                          leaky_relu, mode_multiply, no_record, param, spectral_conv,
                          time_embedding, weighted_l1, workspace)

from checks import grad_check


def _rand(rng, *shape):
    return rng.standard_normal(shape)


def _cols(Z):
    """Complex (..., C) -> the ops' real (..., 2C) [Re | Im] columns."""
    return np.concatenate([Z.real, Z.imag], axis=-1)


def _from_cols(X):
    """The ops' real (..., 2C) [Re | Im] columns -> complex (..., C)."""
    re, im = np.split(X, 2, axis=-1)
    return re + 1j * im


def _from_pairs(X):
    """A kernel's real (..., 2C) (Re, Im) pairs -> complex (..., C)."""
    return X[..., 0::2] + 1j * X[..., 1::2]


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
        out = _from_cols(dft_truncated(param(u), J).value)
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
    out = idft_at(param(_cols(u_hat)), M, q).value[:, 0]
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
    out = _from_cols(mode_multiply(param(R.view(float)), param(_cols(u))).value)
    ref = np.einsum("jkl,bjl->bjk", R, u)
    assert np.max(np.abs(out - ref)) < 1e-12


def test_mode_multiply_shape_check():
    with pytest.raises(ValueError):
        mode_multiply(param(np.zeros((3, 2, 4))), param(np.zeros((4, 4))))
    # an odd last axis holds no (Re, Im) pairs
    with pytest.raises(ValueError):
        mode_multiply(param(np.zeros((3, 2, 3))), param(np.zeros((4, 3, 3))))


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
    """op's output and the gradients of sum(g * output) w.r.t. complex R and u."""
    Rt, ut = param(R.view(float)), param(u)
    out = op(Rt, ut, positions, M)
    Tensor(np.asarray(np.sum(g * out.value)), (out,), lambda s: (s * g,)).backward()
    return out.value, _from_pairs(Rt.grad), ut.grad


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
        spectral_conv(param(np.zeros((3, 2, 4))), param(np.zeros((5, 2))),
                      np.arange(4.0), 4)
    # an odd last axis holds no (Re, Im) pairs
    with pytest.raises(ValueError):
        spectral_conv(param(np.zeros((3, 2, 3))), param(np.zeros((4, 1))),
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
    R = param((_rand(rng, 3, 3, 3) + 1j * _rand(rng, 3, 3, 3)).view(float))
    u_hat = param(_cols(_rand(rng, 2, 3, 3) + 1j * _rand(rng, 2, 3, 3)))
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


def _address(a):
    return a.__array_interface__["data"][0]


def test_workspace_hands_out_only_arrays_nothing_refers_to():
    # an array is reused once nothing outside the pool refers to it, a view
    # of it included; one still referred to is never handed out again
    with workspace():
        a = empty((4, 3))
        first = _address(a)
        view = a.reshape(12)[2:]
        del a
        b = empty((3, 4))                 # same size, but `view` holds the first
        assert _address(b) != first
        del view
        c = empty((2, 6))
        assert _address(c) == first and c.shape == (2, 6)
        d = empty((12,), bool)            # another dtype is another pool
        assert not np.shares_memory(d, b) and not np.shares_memory(d, c)
        with no_record():                 # no tape, no pool
            del c
            assert _address(empty((2, 6))) != first


def test_a_full_workspace_hands_out_plain_arrays_and_reuses_them(monkeypatch):
    # once its block is spent, a pool allocates each new array on its own;
    # such an array is handed out again once nothing refers to it
    monkeypatch.setattr(nnops.Workspace, "SLAB", 1024)
    ws = nnops.Workspace()
    whole = ws.take((128,), float)                # the whole block
    assert isinstance(whole.base.base, memoryview)
    a = ws.take((4, 2), float)
    assert a.base.base is None and a.base.flags.owndata
    first = _address(a)
    b = ws.take((8,), float)                      # `a` is still referred to
    assert _address(b) != first and not np.shares_memory(a, b)
    del a
    c = ws.take((2, 4), float)
    assert _address(c) == first and c.shape == (2, 4)
    assert not np.shares_memory(c, whole) and not np.shares_memory(c, b)


def test_workspaces_filled_at_once_from_two_threads_share_no_memory(monkeypatch):
    # two threads, each in a pool of its own, fill their pools at once, past
    # the end of their blocks: no two arrays handed out share memory, and
    # each array keeps what its thread wrote into it
    monkeypatch.setattr(nnops.Workspace, "SLAB", 1 << 16)
    sizes = [1, 3, 100, 1000] * 40        # 8.8 KiB a cycle, 64 KiB a block
    start = threading.Barrier(2, timeout=60)
    taken = [[], []]

    def fill(k):
        with workspace(nnops.Workspace()):
            start.wait()
            for n in sizes:
                a = empty((n,))
                a[:] = k
                taken[k].append(a)

    threads = [threading.Thread(target=fill, args=(k,)) for k in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [len(arrays) for arrays in taken] == [len(sizes)] * 2
    assert all(np.all(a == k) for k in range(2) for a in taken[k])
    arrays = taken[0] + taken[1]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def test_workspace_scope_restores_on_error():
    with pytest.raises(RuntimeError):
        with workspace():
            assert nnops._TAPE.workspace is not None
            raise RuntimeError("inside the scope")
    assert nnops._TAPE.workspace is None


def test_backward_drops_inner_gradients():
    # an inner node's gradient is spent once its rule has run; the leaves
    # keep theirs
    a = param(np.array([1.0, 2.0]))
    h = add(a, a)
    loss = sum_squares(h)
    loss.backward()
    assert h.grad is None and loss.grad is None
    assert np.array_equal(a.grad, 4 * h.value)


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


def test_time_embedding_of_times_stacks_the_scalar_calls():
    t = np.concatenate([[0.0, 1e-3, 1.0], np.random.default_rng(4).uniform(0, 1, 61)])
    for E in (2, 8, 32):
        want = np.stack([time_embedding(s, E) for s in t])
        assert time_embedding(t, E).tobytes() == want.tobytes()
        assert time_embedding(t[:1], E).shape == (1, E)


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
    R = param((_rand(rng, J, C, C) + 1j * _rand(rng, J, C, C)).view(float))
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
        R = param((_rand(rng, J, C, C) + 1j * _rand(rng, J, C, C)).view(float))
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

"""Single-step forms of the private dynamics, for cross-checks.

dynamics.run_trials advances whole blocks of trials and steps at once.
These helpers take one step of one state vector, written out as the
equations read, so the tests can check invariants and the node-level law
step by step, and measure the error of one trajectory.
"""
import numpy as np

from dpformation.dynamics import noise_gain


def noiseless_step(xbar, p):
    """One consensus step xbar(k+1) = P xbar(k)."""
    return p.matrix @ xbar


def private_step_network(xbar, p, v):
    """Network-level private step P xbar + z with z = gamma * A v."""
    return p.matrix @ xbar + noise_gain(p) @ v


def private_step_node(xbar, g, gamma, v):
    """Node-level private step, written as each agent computes it.

    Agent i mixes its neighbors' noised shifted states against its own
    un-noised state. Used to cross-check the network-level form.
    """
    out = np.array(xbar, dtype=float)
    a = g.adjacency_matrix()
    for i in range(g.n):
        acc = 0.0
        for j in range(g.n):
            if a[i, j] > 0:
                acc += a[i, j] * ((xbar[j] + v[j]) - xbar[i])
        out[i] += gamma * acc
    return out


def private_step(xbar, p, sigmas, rng):
    """Private step with fresh per-agent Gaussian noise of scale sigmas."""
    sigmas = np.broadcast_to(np.asarray(sigmas, dtype=float), (p.n,))
    v = rng.standard_normal(p.n) * sigmas
    return private_step_network(xbar, p, v)


def beta(x, q):
    """Noiseless consensus target from state x: mean(x)*1 + q - mean(q)*1."""
    x = np.asarray(x, dtype=float)
    q = np.asarray(q, dtype=float)
    if x.shape != q.shape:
        raise ValueError("x and q must have the same length")
    return np.mean(x) + q - np.mean(q)


def offset(anchors, i, j):
    """Desired relative state p_j - p_i of an (N, n) anchor matrix."""
    return anchors[j] - anchors[i]


def error_series(xbar_traj):
    """Per-step deviation e(k) and squared-error network average.

    xbar_traj has one row per time step. e(k) = x(k) - beta(k), with beta
    the noiseless consensus target mean(x)*1 + q - mean(q)*1, which in
    shifted coordinates is xbar minus its network mean. The aggregate is
    the average of e_i^2 over agents (one value per step).
    """
    xbar_traj = np.atleast_2d(np.asarray(xbar_traj, dtype=float))
    e = xbar_traj - xbar_traj.mean(axis=1, keepdims=True)
    return e, np.mean(e**2, axis=1)

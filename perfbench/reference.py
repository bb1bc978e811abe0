"""Reference results the benchmark checks the program's outputs against.

Everything here is computed with numpy from the benchmark's own inputs,
on the (gt, est) pairs known by construction, with rotation matrices
rather than the program's quaternion code. Angles use atan2, which is
accurate at every magnitude.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import RATE_HZ, Track, parse_text, quat_from_axis_angle, quat_mul, quat_to_matrix

# Agreement required between a program metric and its reference. The two
# sides use different formulas and summation orders, so they differ in
# the last few ulp of each term; a real defect moves them by far more.
RTOL = 1e-7


def matrix_angle(r: np.ndarray) -> np.ndarray:
    """Rotation angle of matrices (..., 3, 3) in [0, pi]."""
    skew = np.stack(
        [r[..., 2, 1] - r[..., 1, 2], r[..., 0, 2] - r[..., 2, 0], r[..., 1, 0] - r[..., 0, 1]],
        axis=-1,
    )
    cos = (np.trace(r, axis1=-2, axis2=-1) - 1.0) / 2.0
    return np.arctan2(np.linalg.norm(skew, axis=-1) / 2.0, cos)


def ate_rmse(gt: Track, gt_index: np.ndarray, est: Track) -> float:
    """RMSE of translation residuals after the least-squares rigid fit of est onto gt."""
    q = gt.xyz[gt_index]
    p = est.xyz
    pc = p - p.mean(axis=0)
    qc = q - q.mean(axis=0)
    u, _, vt = np.linalg.svd(pc.T @ qc)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    residual = pc @ r.T - qc
    return math.sqrt(float(np.mean(np.sum(residual * residual, axis=1))))


def rpe(gt: Track, gt_index: np.ndarray, est: Track, delta: int) -> tuple[float, float]:
    """(translation rmse, mean rotation angle) of F = (Q_i^-1 Q_j)^-1 (P_i^-1 P_j).

    i < j index associated pairs in gt order, j = i + delta. With M_i = Rq_i Rp_i^T
    the rotation of F is conjugate to M_j^T M_i, so it has the same
    angle, and the translation of F has the norm of
    Rp_i^T tp_j - Rq_i^T tq_j - (Rp_i^T tp_i - Rq_i^T tq_i).
    """
    rq = quat_to_matrix(gt.q[gt_index])
    tq = gt.xyz[gt_index]
    rp = quat_to_matrix(est.q)
    tp = est.xyz
    m = rq @ rp.transpose(0, 2, 1)
    u = np.einsum("nki,nk->ni", rp, tp) - np.einsum("nki,nk->ni", rq, tq)
    i = np.arange(gt_index.size - delta)
    j = i + delta
    err_r = matrix_angle(np.einsum("pki,pkj->pij", m[j], m[i]))
    err_t = np.einsum("pki,pk->pi", rp[i], tp[j]) - np.einsum("pki,pk->pi", rq[i], tq[j]) - u[i]
    return math.sqrt(float(np.mean(np.sum(err_t * err_t, axis=1)))), float(np.mean(err_r))


def close(value, expected: float) -> bool:
    return value is not None and math.isclose(value, expected, rel_tol=RTOL, abs_tol=0.0)


def synth_problems(gt_text: str, est_text: str, spec: dict) -> list[str]:
    """Check a `slameval synth` gt/est pair against the documented generator.

    The ground truth is a planar path at height 1 m, 30 Hz, yawing about
    z, with steps within 10% of step_mean and a mean absolute heading
    change of turn_mean. The estimate keeps a subset of the gt stamps and
    equals  W_i D_i G Q_i  with G the global offset, D_i the drift of frame
    i and W_i the noise, so the residual left after removing G and D_i is
    the noise alone, with the requested sigma.
    """
    problems = []
    gt = parse_text(gt_text)
    est = parse_text(est_text)
    n = spec["frames"]
    n_est = n - int(round(n * spec["dropout"]))
    if gt.t.size != n or est.t.size != n_est:
        return [f"pose counts {gt.t.size}/{est.t.size}, expected {n}/{n_est}"]

    if np.max(np.abs(gt.t - np.arange(n) / RATE_HZ)) > 1e-8:
        problems.append("gt timestamps are not i / 30 s")
    if np.max(np.abs(gt.xyz[:, 2] - 1.0)) > 1e-9 or np.max(np.abs(gt.q[:, 1:3])) > 1e-9:
        problems.append("gt is not a planar path yawing about z at 1 m height")
    steps = np.linalg.norm(np.diff(gt.xyz, axis=0), axis=1) / spec["step_mean"]
    if steps.min() < 0.9 - 1e-6 or steps.max() > 1.1 + 1e-6:
        problems.append("gt step lengths leave 10% of step_mean")
    yaw = 2.0 * np.arctan2(gt.q[:, 3], gt.q[:, 0])
    turn = np.abs(np.angle(np.exp(1j * np.diff(yaw))))
    if not math.isclose(float(np.mean(turn)), spec["turn_mean"], rel_tol=1e-6):
        problems.append(f"gt mean heading change {np.mean(turn)!r} != {spec['turn_mean']}")

    idx = np.clip(np.searchsorted(gt.t, est.t), 0, n - 1)
    if np.max(np.abs(gt.t[idx] - est.t)) > 1e-8:
        return problems + ["estimate stamps are not a subset of the gt stamps"]

    z = np.array([0.0, 0.0, 1.0])
    g_q = quat_from_axis_angle(z, spec["offset_yaw"])
    expected_q = quat_mul(quat_mul(quat_from_axis_angle(z, idx * spec["drift_rot"]), g_q), gt.q[idx])
    expected_t = (
        gt.xyz[idx] @ quat_to_matrix(g_q).T
        + np.asarray(spec["offset"])
        + idx[:, None] * np.asarray(spec["drift"])
    )
    noise_t = (est.xyz - expected_t).ravel()
    noise_r = matrix_angle(
        np.einsum("nij,nkj->nik", quat_to_matrix(est.q), quat_to_matrix(expected_q))
    )
    for name, noise, sigma in (
        ("translation", noise_t, spec["noise_trans"]),
        ("rotation", noise_r, spec["noise_rot"]),
    ):
        rms = math.sqrt(float(np.mean(noise * noise)))
        # Over the ~1000 or more samples of a pair the RMS of Gaussian
        # noise sits within 3% of sigma and no sample reaches 7 sigma, so
        # these limits do not trip on a correct program.
        if np.max(np.abs(noise)) > 7.0 * sigma or abs(rms / sigma - 1.0) > 0.1:
            problems.append(f"{name} noise rms {rms:.3g} max {np.max(np.abs(noise)):.3g}, sigma {sigma}")
    return problems

"""Per-point RMS error of every method from numpy alone: the tests' reference for the analytic engine.

It shares no code with radiomap's engine. The joint covariance of
[S0, S1..Sn] over [p0, *sensors] comes from the few-line kernel below;
sm0's weights come from np.linalg.solve; sm1 and sm2 apply their weights to the
residuals through the hat matrix of the log-distance design, so their
measurement weights are [1, x0] (X'X)^-1 X' + w (I - H); idw and nn
weights are computed here; nat takes sibson_weights, which the acceptance
suite checks against lattice area counting. The RMS is
sqrt(bias^2 + g'Cg) in expanded form.
"""

import numpy as np

from radiomap import Point, sibson_weights


def joint_covariance(model, sites):
    """Covariance matrix of the model over the rows of a (k, 2) array, the three kernels written out."""
    dx, dy = (sites[None, :] - sites[:, None]).transpose(2, 0, 1)
    if model.kind == "elliptical":
        c, s = np.cos(model.rotation), np.sin(model.rotation)
        dx, dy = (c * dx + s * dy) / model.axis_ratio, -s * dx + c * dy
    r = np.sqrt(dx**2 + dy**2) / model.xc
    return model.sigma**2 * np.exp(-(r**2 if model.kind == "gaussian" else r))


def closed_form_rmse(scn, xy, methods, nu=1.0, unit=1.0):
    """{method: (N,) RMS errors} at the rows of an (N, 2) coordinate array.

    unit rescales the covariance to C / unit^2 and the bias to bias / unit,
    and the root back by unit, so sigma may sit near the double range.
    """
    sites = np.array([(s.x, s.y) for s in scn.sensors])
    emitter = np.array([scn.emitter.x, scn.emitter.y])
    x = np.log10(np.linalg.norm(sites - emitter, axis=1))
    design = np.column_stack([np.ones_like(x), x])
    fit_rows = np.linalg.solve(design.T @ design, design.T)
    hat = design @ fit_rows
    median = scn.a_db + 10.0 * scn.gamma * x
    out = {m: [] for m in methods}
    for q in np.asarray(xy, dtype=float):
        x0 = np.log10(np.linalg.norm(q - emitter))
        c = joint_covariance(scn.correlation, np.vstack([q, sites])) / unit**2
        kriging = np.linalg.solve(c[1:, 1:], c[1:, 0])
        d = np.linalg.norm(sites - q, axis=1)
        inverse = d**-nu / np.sum(d**-nu)
        weights = {"sm0": kriging, "sm1": kriging, "sm2": inverse, "idw": inverse, "nn": np.eye(len(d))[np.argmin(d)]}
        if "nat" in methods:
            weights["nat"] = sibson_weights(list(scn.sensors), Point(*q.tolist()))
        for m in methods:
            g = weights[m]
            if m in ("sm1", "sm2"):
                g = np.array([1.0, x0]) @ fit_rows + g @ (np.eye(len(x)) - hat)
            # sm0 adds its weighted shadows to the true median at p0, so it has no bias
            bias = 0.0 if m == "sm0" else scn.a_db + 10.0 * scn.gamma * x0 - g @ median
            var = c[0, 0] - 2.0 * g @ c[1:, 0] + g @ c[1:, 1:] @ g
            out[m].append(unit * np.sqrt((bias / unit) ** 2 + max(var, 0.0)))
    return {m: np.array(v) for m, v in out.items()}

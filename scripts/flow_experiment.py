#!/usr/bin/env python3
"""Relax a perturbed disk to a free boundary minimal disk and dump residuals.

Runs the descent flow from a graph z = amp * (1 - r^2) (optionally with an
angular factor) over the equatorial disk, then re-checks minimality and the
boundary angle on the converged immersion and prints the traced second
variation of the result.

Examples:
  python scripts/flow_experiment.py --amplitude 0.2
  python scripts/flow_experiment.py --n 4 --field radial-spherical --mode sin
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from fbstab import domain as dm
from fbstab import flow as fl
from fbstab import submanifold as sub
from fbstab import variation as var
from fbstab.fields import ConformalMetric, make_field


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--field", type=str, default="zero")
    parser.add_argument("--amplitude", type=float, default=0.2)
    parser.add_argument("--mode", choices=("radial", "sin"), default="radial")
    parser.add_argument("--nr", type=int, default=6)
    parser.add_argument("--ntheta", type=int, default=16)
    parser.add_argument("--max-iter", type=int, default=5000)
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args()

    n = args.n
    dom = dm.make_domain("ball", n, radius=1.0)
    metric = ConformalMetric(make_field(args.field), n)

    def height(y):
        h = np.zeros((y.shape[0], n - 2))
        bump = args.amplitude * (1 - np.sum(y * y, axis=1))
        h[:, 0] = bump * (y[:, 1] if args.mode == "sin" else 1.0)
        return h

    grid = fl.PolarGrid.from_graph(n, height, nr=args.nr, ntheta=args.ntheta)
    cfg = fl.FlowConfig(max_iter=args.max_iter)
    imm, converged, state = fl.run_flow(grid, metric, dom, cfg)

    print(f"converged={converged} iterations={state.iteration} "
          f"|H~|={state.residual:.3e} defect={state.boundary_defect:.3e}")
    print(f"final rescaled volume = {state.volume:.8f}")
    print(f"minimality check: {imm.ambient(metric).minimality.max_residual:.3e}")
    print(f"boundary check:   {imm.ambient(None, dom).defect.max_residual:.3e}")

    if converged and 2 <= imm.k <= n - 2:
        rep = var.instability_certificate(imm, metric, dom, var.CertificateConfig(
            minimality_tol=cfg.tol, free_boundary_tol=cfg.boundary_tol,
            curvature_points=2048,
        ))
        print(f"certificate on the converged immersion: verdict={rep.verdict}, "
              f"traced total = {rep.traced_total:.6f}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "residuals.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "residual", "defect", "volume", "dt", "backtracks"])
            for i, row in enumerate(state.residual_history):
                writer.writerow([i] + [repr(v) for v in row])
        (out / "final-immersion.json").write_text(sub.immersion_to_json(imm))
        print(f"wrote {out / 'residuals.csv'} and {out / 'final-immersion.json'}")


if __name__ == "__main__":
    main()

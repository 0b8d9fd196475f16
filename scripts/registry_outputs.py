#!/usr/bin/env python3
"""Write the registry's outputs to one deterministic JSON, for diffing two builds.

The document holds, for every registry scenario, the instability
certificate's report at seeds 0-2 (an error as its message), Q(X, X) on the
projected canonical constants E_l^perp of every scenario with boundary
samples, and the report of ``fbstab verify --seed 42``.  Floats are written
to the last bit, so two checkouts agree on every output exactly when their
files are identical: run the script in each and ``diff`` the two files.
Prints one line per certificate; use --out to keep the JSON.

Examples:
  python scripts/registry_outputs.py --out results/outputs
  python scripts/registry_outputs.py --scenario cap-disk-b4k2 --out /tmp/one
"""

import argparse
import json
from pathlib import Path

import numpy as np

from fbstab import scenarios as sc
from fbstab import variation as var
from fbstab.errors import ConfigError, GeometryError

SEEDS = (0, 1, 2)
VERIFY_SEED = 42
# the package's typed errors; an error is an output like any value
ERRORS = (ConfigError, GeometryError)


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def scenario_outputs(name: str) -> tuple[dict, dict | None]:
    """``(certificates by seed, Q(E_l^perp) by l or None without boundary
    samples)`` of one registry scenario."""
    try:
        built = sc.build_scenario(name)
    except ERRORS as exc:
        return {str(seed): _error(exc) for seed in SEEDS}, None
    imm, metric, domain = built.immersion, built.metric, built.domain
    certificates = {}
    for seed in SEEDS:
        config = var.CertificateConfig(seed=seed, p=built.scenario.p)
        try:
            certificates[str(seed)] = var.instability_certificate(
                imm, metric, domain, config).to_dict()
        except ERRORS as exc:
            certificates[str(seed)] = _error(exc)
    if not imm.n_boundary:
        return certificates, None
    values = {}
    for l, E in enumerate(np.eye(imm.n)):
        try:
            X = var.projected_field(imm, E)
            values[str(l)] = var.second_variation(imm, metric, X, domain).value
        except ERRORS as exc:
            values[str(l)] = _error(exc)
    return certificates, values


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scenario", action="append", choices=sorted(sc.SCENARIOS),
                        help="restrict the per-scenario outputs (repeatable; default all)")
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args()

    doc = {"certificates": {}, "second_variation": {}}
    for name in args.scenario or sorted(sc.SCENARIOS):
        certificates, values = scenario_outputs(name)
        doc["certificates"][name] = certificates
        if values is not None:
            doc["second_variation"][name] = values
        for seed, report in certificates.items():
            print(f"{name} seed {seed}: "
                  + report.get("error", f"{report.get('verdict')} "
                               f"traced total {report.get('traced_total')!r}"))
    result = sc.run_suite(sc.SUITE_NAMES, VERIFY_SEED)
    doc["verify"] = result.to_dict()
    print(f"verify --seed {VERIFY_SEED}: {result.n_passed}/{len(result.checks)} checks passed")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "registry_outputs.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()

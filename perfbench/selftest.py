"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. The oracle reproduces the textbook retarded and nonretarded-image
   limits, and its half-space formulas approach the mirror for eps -> inf.
2. Every workload check accepts a real pass and rejects the same outputs
   with one value perturbed by a relative 1e-4.
3. The tracer refuses to run when a traced public name has gone, instead
   of reporting zeros, and its self times add up to the traced time.
4. run.py exits non-zero, printing no result, without planarcp sources.

Prints one line per check and exits 1 if any fails.  Takes about a minute.
"""

from __future__ import annotations

import csv
import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import D2, W10  # noqa: E402

C = 299792458.0
BUMP = 1.0 + 1e-4
RESULTS = []


def report(name, ok, detail=""):
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]"
                                                    if detail else ""))


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# 1. oracle limits


def check_oracle():
    ground = -W10  # upward transition: a ground-state atom
    alpha0 = oracle.alpha_imag(0.0, ground, D2)
    for zt, limit, tol, label in (
            (1e4, lambda z: oracle.retarded_limit(alpha0, z), 1e-6,
             "retarded -3 hbar c alpha(0)/(32 pi^2 eps0 z^4)"),
            (1e-4, lambda z: oracle.image_limit(D2, z), 1e-4,
             "nonretarded image -|d|^2/(48 pi eps0 z^3)")):
        z = zt * C / (2.0 * W10)
        r = rel(oracle.mirror_nonresonant_potential(ground, D2, z), limit(z))
        report(f"oracle mirror U_nr at zt={zt:g} vs {label}", r <= tol,
               f"rel {r:.2e} <= {tol:g}")

    # eps ~ 1e8 up to far beyond the integrand's frequencies: within
    # 2 g(zt)/sqrt(eps) ~ 1e-4 of the perfect mirror
    metal = ((1e8, 1e22, 1e16),)
    z = C / (2.0 * W10)
    r = rel(oracle.halfspace_nonresonant_potential(W10, D2, z, metal),
            oracle.mirror_nonresonant_potential(W10, D2, z))
    report("oracle half-space U_nr -> mirror for eps = 1e8", r <= 1e-3,
           f"rel {r:.2e} <= 1e-3")
    dev = abs(oracle.halfspace_resonant_potential(W10, D2, z, metal)
              - oracle.mirror_resonant_potential(W10, D2, z))
    scale = oracle.resonant_scale([(W10, D2, 0.0)], z)
    report("oracle half-space U_r -> mirror for eps = 1e8",
           dev <= 1e-3 * scale, f"{dev / scale:.2e} of scale <= 1e-3")


# ---------------------------------------------------------------------------
# 2. checks reject perturbed outputs


def _csv_with(text, row, changes):
    """CSV text with row `row` columns changed: {column: new value}."""
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    header, rows = workloads._read_csv(text)
    col = {name: k for k, name in enumerate(header)}
    for name, value in changes.items():
        rows[row][col[name]] = value
    buf = io.StringIO()
    for ln in comments:
        buf.write(ln + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for r in rows:
        writer.writerow([repr(float(x)) for x in r])
    return buf.getvalue()


def _csv_value(text, row, name):
    header, rows = workloads._read_csv(text)
    return rows[row][header.index(name)]


def perturb_hs_potential(wl, out):
    i = wl.oracle_indices(out["points"])[0]
    u_nr, u_r, u_tot, err = out["points"][i]
    for label, new in (
            ("u_nonresonant", (u_nr * BUMP, u_r, u_nr * BUMP + u_r, err)),
            ("u_resonant", (u_nr, u_r * BUMP, u_nr + u_r * BUMP, err)),
            ("u_total", (u_nr, u_r, u_tot * BUMP, err))):
        points = list(out["points"])
        points[i] = new
        yield f"z{i} {label} x (1 + 1e-4)", {"points": points}


def perturb_hs_slab(wl, out):
    res = list(out["resonant"])
    res[0] *= BUMP
    yield "gap0 resonant, quadrature route x (1 + 1e-4)", dict(
        out, resonant=res)
    nr = list(out["nonresonant"])
    nr[0] *= BUMP
    yield "gap0 nonresonant, quadrature route x (1 + 1e-4)", dict(
        out, nonresonant=nr)
    f_r = _csv_value(out["csv"], 0, "f_resonant")
    f_nr = _csv_value(out["csv"], 0, "f_nonresonant")
    yield "gap0 f_resonant in the CSV x (1 + 1e-4)", dict(out, csv=_csv_with(
        out["csv"], 0, {"f_resonant": f_r * BUMP,
                        "f_total": f_r * BUMP + f_nr}))
    yield "gap0 f_total in the CSV x (1 + 1e-4)", dict(out, csv=_csv_with(
        out["csv"], 0, {"f_total": (f_r + f_nr) * BUMP}))
    # both routes moved together: only the duality check can see it
    g = wl.dual_gap
    res = list(out["resonant"])
    res[g] *= BUMP
    f_nr = _csv_value(out["csv"], g, "f_nonresonant")
    yield f"gap{g} resonant, both routes x (1 + 1e-4)", dict(
        out, resonant=res, csv=_csv_with(
            out["csv"], g, {"f_resonant": res[g], "f_total": res[g] + f_nr}))


def perturb_mirror(wl, out):
    slabs = out["slabs"]
    f_r, f_nr, _, err = slabs[0]
    changed = list(slabs)
    changed[0] = (f_r * BUMP, f_nr, f_r * BUMP + f_nr, err)
    yield "slab0 f_resonant x (1 + 1e-4)", dict(out, slabs=changed)
    # the slab whose error bound is tightest relative to its force
    k = min(range(len(slabs)), key=lambda j: slabs[j][3] / abs(slabs[j][1]))
    f_r, f_nr, _, err = slabs[k]
    changed = list(slabs)
    changed[k] = (f_r, f_nr * BUMP, f_r + f_nr * BUMP, err)
    yield f"slab{k} f_nonresonant x (1 + 1e-4)", dict(out, slabs=changed)
    u_nr = _csv_value(out["cp_csv"], 3, "u_nonresonant") * BUMP
    u_r = _csv_value(out["cp_csv"], 3, "u_resonant")
    yield "cp-potential z3 u_nonresonant x (1 + 1e-4)", dict(
        out, cp_csv=_csv_with(out["cp_csv"], 3, {"u_nonresonant": u_nr,
                                                 "u_total": u_nr + u_r}))
    rc, stdout, text = out["fig3"]
    yield "fig3 with one PASS turned FAIL", dict(
        out, fig3=(rc, stdout.replace("PASS", "FAIL", 1), text))


PERTURBATIONS = {
    "hs-potential-readme": perturb_hs_potential,
    "hs-slab-force": perturb_hs_slab,
    "mirror-slab-oracle": perturb_mirror,
}


def check_workloads(P, workdir):
    for name, perturb in PERTURBATIONS.items():
        wl = workloads.make(name, 7, workdir)
        wl.write_inputs()
        wl.setup(P)
        out = wl.run_pass(P).outputs
        problems = wl.check(P, out)
        report(f"{name}: a real pass is accepted", not problems,
               "; ".join(problems)[:300])
        for label, bad in perturb(wl, out):
            problems = wl.check(P, bad)
            report(f"{name}: rejects {label}", bool(problems),
                   problems[0][:120] if problems else "accepted")


# ---------------------------------------------------------------------------
# 3. tracing


def _planarcp_modules():
    return [m for name, m in sys.modules.items()
            if name == "planarcp" or name.startswith("planarcp.")]


def check_tracing(P):
    for owner, name in ((P.greens, "d_dz_traces"),
                        (P.materials.MaterialResponse, "mu")):
        original = vars(owner)[name]
        delattr(owner, name)
        try:
            tracing.Tracer(P).install()
            report(f"tracer refuses a missing {owner.__name__}.{name}", False,
                   "installed anyway")
        except tracing.TracingError as exc:
            report(f"tracer refuses a missing {owner.__name__}.{name}", True,
                   str(exc))
        finally:
            setattr(owner, name, original)
        leftover = [f"{m.__name__}.{k}"
                    for m in (*_planarcp_modules(),
                              P.materials.MaterialResponse)
                    for k, v in vars(m).items()
                    if getattr(v, "__traced__", False)]
        report("tracer leaves no wrapper behind after refusing",
               not leftover, ", ".join(leftover))

    tracer = tracing.Tracer(P)
    tracer.install()
    try:
        atom = P.AtomModel("excited", (P.Transition(W10, D2),))
        metal = P.MaterialResponse("drude-lorentz", eps_oscillators=(
            P.LorentzOscillator(1.0, 1e16, 1e14),))
        tracer.point = "p0"
        P.total_potential(atom, P.PlanarGeometry(metal, 3e-7))
    finally:
        tracer.remove()
    m = tracing.layer_metrics(tracer.spans)
    top = sum(s[6] - s[5] for s in tracer.spans if s[1] < 0)
    selfs = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    report("traced point: self times add up to the traced time",
           math.isclose(top, selfs, rel_tol=1e-9), f"{selfs:.6f} s")
    report("traced point: one point, traces on both axes, integrals counted",
           m["potentials.points"] == 1 and m["greens.imag_traces"] > 0
           and m["greens.real_traces"] == 1
           and m["quadrature.integrals"] > m["greens.imag_traces"]
           and all(s[2] == "p0" for s in tracer.spans),
           f"{m['greens.imag_traces']} imaginary-axis traces, "
           f"{m['quadrature.integrals']} integrals")


# ---------------------------------------------------------------------------
# 4. no program, no result


def check_bare_directory(workdir):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "mirror-slab-oracle", "--seed", "1", "--seconds", "1", "--trace",
         "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    report("run.py without planarcp sources exits non-zero, no result",
           proc.returncode != 0 and not proc.stdout.strip(),
           f"exit {proc.returncode}")


def main():
    workdir = workloads.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_oracle()
        P = workloads.load_program()
        check_tracing(P)
        check_bare_directory(workdir)
        check_workloads(P, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"selftest: {sum(RESULTS)}/{len(RESULTS)} passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())

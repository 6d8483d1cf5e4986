"""Command-line interface.

Subcommands: ``analyze`` (classification + stabilizer report for a state
file), ``reconstruct`` (invert a panel file), ``sibling-search`` (brute
force hunt for a panel-sharing partner), and ``demo-chi`` (the partial
panel demonstration).  Exit codes: 0 for a determined/negative result,
10 when the state is GHZ-class / a sibling is found, 2 for input errors.

Each command imports what it runs inside its handler, so a process pays
only for its own command's modules, and ``--help`` loads no numpy at all.
The top of this module imports only ``argparse``, ``sys`` and
``tolerances`` (for the parser's defaults); a new command imports inside
its handler too.
"""

from __future__ import annotations

import argparse
import sys

from .tolerances import CHI_DEMO_TOL, CLASSIFY_TOL, RECONSTRUCT_TOL, SEARCH_BUDGET, SEARCH_TOL

EXIT_OK = 0
EXIT_GHZ = 10
EXIT_INPUT = 2


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _print_matrix(mat, indent: str = "    ") -> None:
    for row in mat:
        print(indent + "  ".join(_fmt_complex(z) for z in row))


def _cmd_analyze(args) -> int:
    from .classifier import classify
    from .io import load_state
    from .stabilizer import stabilizer_subalgebra

    state = load_state(args.state_file)
    psi = state.ket
    label = f" ({state.label})" if state.label else ""
    print(f"state: {args.state_file}{label}, n={psi.n}")
    cls = classify(psi, args.tol)
    print("one-qubit spectra:")
    for j in range(psi.n):
        p0, p1 = cls.diagnostics.spectra[j]
        flag = "  (degenerate)" if cls.diagnostics.degenerate[j] else ""
        print(f"  qubit {j + 1}: {p0:.12g} {p1:.12g}{flag}")
    basis = stabilizer_subalgebra(psi)
    print(f"stabilizer dimension: {basis.dimension}")
    print(f"verdict: {cls.verdict}")
    if cls.ghz_class:
        cert = cls.certificate
        print(f"alpha: {_fmt_complex(cert.alpha)}")
        print(f"beta:  {_fmt_complex(cert.beta)}")
        print(f"support: {cert.support[0]} {cert.support[1]}")
        print("locals (applied to reach the antipodal form):")
        for u in cert.locals_:
            print(f"  qubit {u.target}:")
            _print_matrix(u.entries)
        return EXIT_GHZ
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    from .io import load_panel, save_state
    from .reconstruct import reconstruct

    panel = load_panel(args.panel_file)
    result = reconstruct(panel, args.tol)
    print(f"panel: {args.panel_file}, n={panel.n}")
    print(f"outcome: {result.outcome}")
    print(f"panel residual: {result.residual:.12g}")
    if result.outcome == "incompatible":
        print(f"reason: {result.reason}")
        return EXIT_OK
    if result.outcome == "ghz-family":
        cert = result.certificate
        print("one-parameter family; writing the phase-zero representative")
        print(f"alpha: {_fmt_complex(cert.alpha)}")
        print(f"beta:  {_fmt_complex(cert.beta)}")
    if args.out:
        save_state(args.out, result.state, label=f"reconstructed ({result.outcome})")
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_sibling_search(args) -> int:
    from .io import load_state
    from .oracle import search_sibling

    state = load_state(args.state_file)
    psi = state.ket
    report = search_sibling(psi, tol=args.tol, budget=args.budget, seed=args.seed)
    print(f"state: {args.state_file}, n={psi.n}")
    print(f"trials: {report.trials}")
    if report.found:
        unitary, partner = report.witness
        overlap = abs(partner.overlap(psi))
        print("sibling: found")
        print(f"residual: {report.best_residual:.12g}")
        print(f"overlap with source: {overlap:.12g}")
        print("witness unitary on qubit 1:")
        _print_matrix(unitary.entries, indent="  ")
        return EXIT_GHZ
    print("sibling: not found")
    print(f"best residual: {report.best_residual:.12g}")
    return EXIT_OK


def _cmd_demo_chi(args) -> int:
    import numpy as np

    from .classifier import classify
    from .oracle import chi_state
    from .panels import subset_equal
    from .tensors import PAULI_Z, Ket, _act

    print("state definition: (1/sqrt(3)) (|0000> + |0001> + |1111>)")
    chi = chi_state()
    ops = [(1, PAULI_Z)]
    if args.perturb:
        # deliberately corrupt the partner so the harness shows a failure
        c, s = np.cos(1e-3), np.sin(1e-3)
        ops.append((2, np.array([[c, -s], [s, c]])))
    partner = Ket(4, _act(chi.amplitudes, ops))
    checks = [
        (
            "marginals omitting qubits 1, 2, 3 all match the sign-flipped partner",
            subset_equal(chi, partner, {1, 2, 3}, CHI_DEMO_TOL),
        ),
        (
            "marginal omitting qubit 4 differs",
            not subset_equal(chi, partner, {4}, CHI_DEMO_TOL),
        ),
        (
            "classification: determined",
            not classify(chi).ghz_class,
        ),
    ]
    all_ok = True
    for text, ok in checks:
        marker = "PASS" if ok else "FAIL"
        all_ok = all_ok and ok
        print(f"[{marker}] {text}")
    return EXIT_OK if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmarginal",
        description=(
            "Decide whether an n-qubit pure state is determined by its "
            "(n-1)-qubit reduced density matrices, and reconstruct states "
            "from panels of marginals."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a state file")
    p.add_argument("state_file")
    p.add_argument("--tol", type=float, default=CLASSIFY_TOL)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("reconstruct", help="recover pure states from a panel file")
    p.add_argument("panel_file")
    p.add_argument("--tol", type=float, default=RECONSTRUCT_TOL)
    p.add_argument("--out", default=None, help="write the reconstructed state here")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("sibling-search", help="brute-force search for a panel-sharing partner")
    p.add_argument("state_file")
    p.add_argument("--budget", type=int, default=SEARCH_BUDGET)
    p.add_argument("--tol", type=float, default=SEARCH_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sibling_search)

    p = sub.add_parser("demo-chi", help="partial-panel demonstration on the 4-qubit example")
    p.add_argument("--perturb", action="store_true", help="inject a failure for harness testing")
    p.set_defaults(func=_cmd_demo_chi)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:  # FileFormatError included
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

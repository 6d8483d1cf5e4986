"""The parity tools' ``--decisions`` mode: the decision fields of a full
output, read on standard input."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

ORACLE_LINES = {
    "oracle-7/haar 3 16 False 16 inf -": "oracle-7/haar 3 16 False 16 inf",
    "orbit/w 4 64 False 64 0x1.bb67ae8584ca8p+0 -": "orbit/w 4 64 False 64 0x1.bb67ae8584ca8p+0",
    # a witness's residual moves with rounding, so it is no decision
    "oracle-7/ghz-orbit 3 16 True 2 0x1.6ed9473322ccdp-51 925c9716": "oracle-7/ghz-orbit 3 16 True 2 -",
}

VERDICT_LINES = {
    "analyze-7/ghz-orbit 3 classify=ghz-class,non-degenerate,False,6e440f9264b69793,f027c8c1edd9f39b "
    "dimension=undetermined stabilizer=2,23d48ebc303911cf chain=1,6":
    "analyze-7/ghz-orbit 3 classify=ghz-class,non-degenerate,False dimension=undetermined stabilizer=2 chain=1,6",
    # the reason holds spaces
    "reconstruct-7/perturbed 3 reconstruct=incompatible,one-qubit marginals disagree across entries by "
    "5.626e-03,0x1.70b9febca20b8p-8,- consistency=0x1.70b9febca20b8p-8 purify=c545f9dec5bea1c9,f49abfd31fe80dce":
    "reconstruct-7/perturbed 3 reconstruct=incompatible,one-qubit marginals disagree across entries by 5.626e-03",
    # a line with the fields of both kinds
    "eps-1e-06 3 classify=determined,non-degenerate,False,07290a2ac1e4b66c,- dimension=determined "
    "stabilizer=1,7afec04d420ad7b7 reconstruct=unique,None,0x1.c000000000000p-52,44d8e8352d188022 "
    "consistency=0x1.0000000000000p-53 purify=3e4ffee2733da191,7bd7821d62b4a639":
    "eps-1e-06 3 classify=determined,non-degenerate,False dimension=determined stabilizer=1 reconstruct=unique,None",
}


@pytest.mark.parametrize("tool, lines", [("oracle", ORACLE_LINES), ("verdict", VERDICT_LINES)])
def test_decisions_keep_only_the_decision_fields(tool, lines):
    # the fields that the sed and awk programs of the CI workflow once
    # extracted, line for line
    proc = subprocess.run(
        [sys.executable, str(TOOLS / f"{tool}_parity.py"), "--decisions"],
        input="".join(f"{line}\n" for line in lines),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == list(lines.values())

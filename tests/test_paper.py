"""The paper abstract's five claims against this model's seed-0 figures.

Run with `pytest tests/test_paper.py -s` to see one line per claim.  Each
measured figure is recomputed in process and pinned exactly; the README
section "Against the paper" explains each gap from the cost model.
"""

import json
import sys

from walletemu.cli import main


def claim(name, ours, paper):
    print(f"PAPER {name}: ours {ours}; paper {paper}", file=sys.stderr)


def run_json(argv, out):
    assert main(argv + ["--seed", "0", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_abstract_claims_at_seed_0(tmp_path):
    claim("TCB", "not measured (no code-size model)", "4.3x smaller")
    claim("end-to-end latency", "not measured (no command reports it)",
          "15-93% lower")

    density = run_json(["density", "--n-functions", "500"],
                       tmp_path / "density.json")
    cvm = next(r for r in density["table"] if r["variant"] == "CVM")
    assert cvm["ratio_vs_wallet"] == 952.938
    claim("density", f"CVM needs {cvm['ratio_vs_wallet']}x Wallet's memory "
          "at 500 functions", "up to 907x")

    claim("communication", "not measured (no command reports it)",
          "up to 27x less")

    speedups = {k: run_json(["chain", "--k", str(k), "--payload-size", "4096"],
                            tmp_path / f"chain-{k}.json")["speedup"]
                for k in (2, 8, 32)}
    assert speedups == {2: 14.0, 8: 31.333333333333332, 32: 37.63636363636363}
    claim("chaining", " / ".join(f"{s:.1f}x at k={k}"
                                 for k, s in speedups.items()) + ", 4 KiB",
          "16.7-30.2x")

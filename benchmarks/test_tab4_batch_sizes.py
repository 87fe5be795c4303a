"""Table 4: SD speedup vs batch size and verification budget.

Qwen-32B (TP=4) on H100 with depth=10, topK=8.  Expected shape: speedup
decreases with batch size; at small batches larger Tokens_to_Verify wins,
at large batches smaller budgets win (the crossover the BEG-MAB bucketing
exploits); SD still profits at batch 32.
"""

from __future__ import annotations

from _common import format_table, write_result
from repro.hardware import RooflineModel, drafter_spec, get_gpu, get_model
from repro.rollout import ParametricAcceptance
from repro.specdec import SdStrategy

BATCHES = [1, 2, 4, 8, 16, 32]
VERIFY = [16, 32, 48, 64]
PAPER_BS1 = {16: 3.22, 32: 3.46, 48: 3.56, 64: 3.62}


def test_tab4_batch_sizes(benchmark):
    model = get_model("Qwen2.5-32B")
    drafter = drafter_spec(model)
    roofline = RooflineModel(
        model=model, gpu=get_gpu("H100"), tensor_parallel=4
    )
    acceptance = ParametricAcceptance()

    def sweep():
        grid = {}
        for batch in BATCHES:
            for verify in VERIFY:
                strategy = SdStrategy(
                    draft_depth=10, topk=8, tokens_to_verify=verify
                )
                accept = acceptance.accept_length(strategy, batch)
                grid[(batch, verify)] = roofline.sd_speedup(
                    drafter, accept, batch, 10, 8, verify,
                )
        return grid

    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for batch in BATCHES:
        rows.append(
            [f"BS={batch}"]
            + [f"{grid[(batch, v)]:.2f}x" for v in VERIFY]
        )
    rows.append(
        ["paper BS=1"] + [f"{PAPER_BS1[v]:.2f}x" for v in VERIFY]
    )
    write_result(
        "tab4_batch_sizes",
        format_table(["batch \\ verify"] + [str(v) for v in VERIFY],
                     rows),
    )

    # Speedup decreases with batch at every verification budget.
    for verify in VERIFY:
        col = [grid[(b, verify)] for b in BATCHES]
        assert col[0] > col[-1]
    # At BS=1 bigger budgets win; at BS=32 the ordering flips.
    assert grid[(1, 64)] > grid[(1, 16)]
    assert grid[(32, 16)] > grid[(32, 64)]
    # SD still profits at batch 32 (paper: 1.70-2.48x).
    assert grid[(32, 16)] > 1.3
    # BS=1 magnitudes near the paper's.
    for verify in VERIFY:
        assert abs(grid[(1, verify)] - PAPER_BS1[verify]) < 1.0

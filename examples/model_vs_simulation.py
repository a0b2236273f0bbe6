"""Cross-validate the paper's analytic models against the simulator.

The paper evaluates analytically only; this example runs the real system —
key trees, batched rekeying, two-partition servers, WKA-BKR over a lossy
channel — at laptop scale and prints predicted vs measured costs for each
model (Appendix A, Section 3.3, Appendix B), each against its tolerance.

Run:  python examples/model_vs_simulation.py

Set REPRO_EXAMPLE_FAST=1 to validate two small configurations only (the
same ones ``repro validate --fast`` uses) — the test suite's smoke runner
uses this.
"""

import os


def main() -> None:
    from repro.experiments.validation import (
        fast_validations,
        over_tolerance,
        run_all_validations,
        validation_table,
    )

    fast = os.environ.get("REPRO_EXAMPLE_FAST", "") not in ("", "0")
    results = fast_validations() if fast else run_all_validations()
    print("(trees are real, not the model's idealized full trees)\n")
    print(validation_table(results))
    print(f"\nover tolerance: {', '.join(over_tolerance(results)) or 'none'}")


if __name__ == "__main__":
    main()

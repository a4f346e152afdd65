"""Fresh-interpreter helpers that `run.py` starts as subprocesses.

    python3 perfbench/child.py setup <workload> <inputs.json>
        Cold set-up probe: import the package, build and validate the input,
        and enter the production entry point; at its first slot (or first
        channel sample) print the CLOCK_MONOTONIC time and stop.

    python3 perfbench/child.py spanned-cli <spans.json> <secsched argv...>
        Run `secsched.cli.main` with the layer spans installed and write the
        spans to <spans.json>; exits with main's code.

The package is found through PYTHONPATH, which `run.py` sets.
"""
import json
import sys
import time


class FirstSlot(Exception):
    """Raised at the first slot or sample to end the set-up probe."""


def _stop(*args, **kwargs):
    raise FirstSlot(time.monotonic())


def setup(workload: str, inputs: dict) -> float:
    try:
        if workload == "run-partial-colluding":
            import secsched.simulator as simulator
            simulator.sample_realization_batch = _stop
            simulator.run(simulator.ScenarioConfig(**inputs["config"]))
        elif workload == "cli-trace-inst-noncolluding":
            import secsched.cli as cli
            import secsched.simulator as simulator
            simulator.sample_realization_batch = _stop
            cli.main(inputs["argv"])
        elif workload == "calibrate-outage":
            import secsched.secrecy as secrecy
            secrecy.sample_complex_gaussian = _stop
            secrecy.calibrate_outage(**inputs["calls"][0])
        else:
            raise SystemExit(f"unknown workload {workload!r}")
    except FirstSlot as reached:
        return reached.args[0]
    raise SystemExit("the set-up probe never reached a slot or sample")


def spanned_cli(spans_path: str, argv: list) -> int:
    import secsched.cli as cli
    from spans import MAIN_SPAN, Tracer, instrumented

    tracer = Tracer()
    with instrumented(tracer, modules=("secsched.cli", "secsched.simulator")):
        with tracer.span(MAIN_SPAN):
            code = cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        with open(sys.argv[3]) as fh:
            print(repr(setup(sys.argv[2], json.load(fh))))
    elif sys.argv[1] == "spanned-cli":
        sys.exit(spanned_cli(sys.argv[2], sys.argv[3:]))
    else:
        raise SystemExit(f"unknown command {sys.argv[1]!r}")

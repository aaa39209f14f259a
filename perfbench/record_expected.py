"""Record the reference values the correctness gate compares against.

    python3 perfbench/record_expected.py --seeds 0 1 2

For every workload and seed this makes one run at the workload's config
and stores, under the config digest, the model weight hash, the basis
digest and the repr of each method's mean error in expected.json. Later
runs of a recorded (workload, config, seed) must reproduce them exactly,
so record only from a commit whose outputs are known to be right. The
runs are not checked against the existing record: a changed entry is
overwritten and its old and new values are printed. A run that fails its
other checks is not recorded, and the script then exits with code 1
after writing the entries that did pass.
"""

import argparse
import json
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402  (pins the BLAS threads before numpy is imported)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    run.import_package()
    import harness

    path = harness.EXPECTED_PATH
    data = json.loads(path.read_text()) if path.exists() else {}
    status = 0
    for name in harness.WORKLOADS:
        for seed in args.seeds:
            result = harness.run(name, seed, seconds=0.0, trace=False, check_record=False)
            if not result["correct"]:
                print(f"{name} seed {seed}: run failed, nothing recorded", file=sys.stderr)
                status = 1
                continue
            ref = result["reference"]
            entry = data.get(name)
            if entry is None or entry["config"] != ref["config"]:
                entry = data[name] = {"config": ref["config"], "seeds": {}}
            new = {key: ref[key] for key in ("weight_hash", "basis_digest", "errors")}
            old = entry["seeds"].get(str(seed))
            if old is None:
                print(f"{name} seed {seed}: recorded {new}")
            elif old == new:
                print(f"{name} seed {seed}: unchanged")
            else:
                print(f"{name} seed {seed}: changed\n  old {old}\n  new {new}")
            entry["seeds"][str(seed)] = new
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())

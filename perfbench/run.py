"""dimerkit benchmark: certify, tiling and spectrum over torus covers.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Generates the cover corpus (``cover.py``) under ``.perfbench/``, then runs
passes of the workload for about ``--seconds``.  Every pass runs in fresh
worker processes (``worker.py``), so every op starts as cold as a CLI call.
The seed picks the stability-weight seeds and the workers' hash seeds; the
program only sees the generated model files.

With ``--trace 0`` the runner reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics of the traced ones with the tracing overhead, checks that
traced and untraced ops give the same outputs, and writes the spans to
``.perfbench/spans-<workload>-seed<n>.jsonl``.  Every metric is printed by
name with its unit; the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from cover import CERTIFY, SPECTRUM, TILING, cover_name, write_corpus  # noqa: E402
from spans import layer_metrics, per_layer_metric_names  # noqa: E402

WORKLOADS = {
    "certify": [cover_name(*c) for c in CERTIFY],
    "tiling": [cover_name(*c) for c in TILING],
    "spectrum": [cover_name(n, a, b) for n, a, b, _ in SPECTRUM],
}
# certify digests are recorded for these weight seeds (digests.json); a run
# uses four of them, one worker process each; more seeds per run make a
# run's figures depend less on which seeds it drew
THETA_POOL = range(16)
THETA_SEEDS_PER_RUN = 4
MIN_PASSES = 3  # samples per op, at least
SETUP_PER_PASS = 4  # set-up-only workers after each pass
WORKER_TIMEOUT_S = 170


def tail_percentile(n: int) -> int | None:
    """Highest percentile of ``n`` samples with at least ten beyond it."""
    return int(100 * (1 - 10 / n)) if n > 10 else None


def run_worker(workload: str, theta_seed: int, trace: bool, hash_seed: int,
               run_ops: bool = True) -> dict:
    """One worker process; ``hash_seed`` fixes its string hashing, which
    orders the package's sets and dicts and so the work they cause."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload,
           os.path.join(STATE, "corpus"), str(theta_seed), "1" if trace else "0",
           "1" if run_ops else "0", *WORKLOADS[workload]]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(workload: str, theta_seeds: list[int], trace: bool, rng: random.Random) -> dict:
    """One worker per weight seed (four for certify, one otherwise), in turn."""
    seeds = theta_seeds if workload == "certify" else theta_seeds[:1]
    workers = [(s, run_worker(workload, s, trace, rng.randrange(2**32))) for s in seeds]
    ops, spans = [], []
    for w, (s, res) in enumerate(workers):
        offset = len(spans)
        for op in res["ops"]:
            op["theta_seed"] = s
            op["worker"] = w
            ops.append(op)
        for sp in res["spans"]:
            spans.append([sp[0], sp[1], sp[2], None if sp[3] is None else sp[3] + offset,
                          (w, sp[4]), sp[5], sp[6]])
    return {
        "traced": trace,
        "ops": ops,
        "spans": spans,
        "seconds": sum(op["s"] for op in ops),
        "raw_seconds": sum(op["raw_s"] for op in ops),
        "setup_s": [res["setup_s"] for _, res in workers],
        "peak_rss_mb": max(res["peak_rss_mb"] for _, res in workers),
    }


def output_problems(workload: str, passes: list[dict]) -> list[str]:
    """Failed ops, outputs that differ between passes (traced or not), and
    certify output that differs from the recorded digests.

    A certify op that failed identically when recorded is a known failure,
    counted in ``failed`` but not a problem; one that now passes every check
    is a fixed failure, whatever its bytes.
    """
    recorded = {}
    if workload == "certify":
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            recorded = json.load(fh)
    problems = []
    seen: dict[tuple, str] = {}
    for p in passes:
        for op in p["ops"]:
            label = f"{op['model']} weight seed {op['theta_seed']}"
            if seen.setdefault((op["model"], op["theta_seed"]), op["digest"]) != op["digest"]:
                problems.append(f"{label}: output differs from an earlier pass"
                                f"{' (traced)' if p['traced'] else ''}")
            rec = recorded.get(str(op["theta_seed"]), {}).get(op["model"])
            known = rec is not None and not rec["ok"] and rec["digest"] == op["digest"]
            if not op["ok"] and not known:
                problems.append(f"{label}: {op['reason']}")
            if op["ok"] and rec is not None and rec["ok"] and rec["digest"] != op["digest"]:
                problems.append(f"{label}: stdout differs from the recorded digest")
    return problems


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """End-to-end metrics of the untraced passes.

    Every pass runs the same ops, so each op is sampled once per pass, in
    seconds at the reference speed (``pace.py``), and its time is the median
    of its samples.  The op-time distribution and the pass time are built
    from these per-op times.
    """
    by_op: dict[tuple, list[float]] = {}
    for p in passes:
        for op in p["ops"]:
            by_op.setdefault((op["model"], op["theta_seed"]), []).append(op["s"])
    op_s = sorted(statistics.median(v) for v in by_op.values())
    pass_s = sum(op_s)
    attempted = sum(len(p["ops"]) for p in passes)
    ok = sum(op["ok"] for p in passes for op in p["ops"])
    pct = tail_percentile(len(op_s))
    if pct is None:
        tail = op_s[-1]
        tail_note = f"slowest of {len(op_s)} ops: too few for a percentile with ten beyond"
    else:
        tail = statistics.quantiles(op_s, n=100)[pct - 1]
        tail_note = f"p{pct} of {len(op_s)} ops, {sum(t > tail for t in op_s)} beyond"
    return {
        "ok_ops_per_s": (ok / len(passes) / pass_s, "1/s",
                         f"{ok / len(passes):g} ok ops per pass over {pass_s:.4f} s"),
        "op_p50_s": (statistics.median(op_s), "s", f"median of {len(op_s)} ops"),
        "op_tail_s": (tail, "s", tail_note),
        "ok_share": (ok / attempted, "ratio",
                     f"fail_share {attempted - ok}/{attempted}, over {len(passes)} passes"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB",
                        "median over passes of the largest worker peak"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} worker set-ups"),
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    rows = []
    for p in traced:
        errored = {sp[4] for sp in p["spans"] if sp[5]}
        checks: dict[str, int] = {}
        for op in p["ops"]:
            if not op["ok"] and (op["worker"], op["index"]) not in errored:
                checks[op["layer"]] = checks.get(op["layer"], 0) + 1
        rows.append(layer_metrics(p["spans"], checks))
    units = dict(per_layer_metric_names())
    metrics = {name: (statistics.median(r[name] for r in rows), units[name],
                      f"median of {len(rows)} traced passes") for name in rows[0]}
    overhead = (statistics.median(p["raw_seconds"] for p in traced)
                - statistics.median(p["raw_seconds"] for p in plain))
    metrics["trace.overhead_s"] = (overhead, "s",
                                   "traced minus untraced pass op time, raw seconds, medians")
    return metrics


def environment(args, theta_seeds) -> dict:
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": args.workload, "seed": args.seed, "theta_seeds": theta_seeds,
            "seconds": args.seconds, "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform(), "commit": commit}


def write_spans(path: str, passes: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for k, p in enumerate(passes):
            if not p["traced"]:
                continue
            for i, sp in enumerate(p["spans"]):
                w, op = sp[4]
                fh.write(json.dumps({
                    "id": f"p{k}.s{i}",
                    "name": sp[0],
                    "start": sp[1],
                    "end": sp[2],
                    "parent": None if sp[3] is None else f"p{k}.s{sp[3]}",
                    "op": f"p{k}.w{w}.op{op}",
                    "error": sp[5],
                    "count": sp[6],
                }) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dimerkit", "__init__.py")):
        print(f"error: no dimerkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    write_corpus(os.path.join(STATE, "corpus"))
    rng = random.Random(args.seed)
    theta_seeds = rng.sample(THETA_POOL, THETA_SEEDS_PER_RUN)
    env = environment(args, theta_seeds)

    # passes while the next one, at the mean pass time so far, ends no more
    # than half a pass after --seconds; up to MIN_PASSES (in a traced run,
    # one pass of each kind) while it ends within 1.5 x --seconds
    need = 2 if args.trace else MIN_PASSES
    passes: list[dict] = []
    setups: list[float] = []
    elapsed, start = 0.0, time.monotonic()
    while not passes or (args.trace and len(passes) < 2) or (
        elapsed + elapsed / len(passes) / 2 <= args.seconds
    ) or (len(passes) < need and elapsed + elapsed / len(passes) <= 1.5 * args.seconds):
        traced = bool(args.trace and len(passes) % 2)
        passes.append(run_pass(args.workload, theta_seeds, traced, rng))
        # set-up-only workers after every pass spread the set-up samples
        # over the run like the ops
        for _ in range(SETUP_PER_PASS):
            setups.append(run_worker(args.workload, theta_seeds[0], False,
                                     rng.randrange(2**32), run_ops=False)["setup_s"])
        elapsed = time.monotonic() - start
    setups += [s for p in passes for s in p["setup_s"]]

    problems = output_problems(args.workload, passes)
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        metrics = per_layer(passes)
        write_spans(os.path.join(STATE, f"spans-{args.workload}-seed{args.seed}.jsonl"), passes)
    else:
        metrics = end_to_end(plain, setups)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not op["ok"] for p in passes for op in p["ops"])

    with open(os.path.join(STATE, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "problems": problems,
                   "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes]},
                  fh, indent=1)

    print(f"dimerkit benchmark: {args.workload}, seed {args.seed}, weight seeds {theta_seeds}, "
          f"{len(plain)} untraced + {len(passes) - len(plain)} traced passes")
    print(f"python {env['python']}, nproc {env['nproc']}, {env['platform']}, commit {env['commit']}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:38s} {value:14.6f} {unit:6s} {note}")
    print(f"  attempted {attempted}, failed {failed}")
    for line in problems:
        print(f"  PROBLEM: {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

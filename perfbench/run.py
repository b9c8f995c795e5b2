#!/usr/bin/env python3
"""Repository benchmark for the `ems` event matcher.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark builds `ems` and `perfbench/harness` from source (into
$CARGO_TARGET_DIR, default `.bench_build`), generates the workload's inputs
from `--seed` in a private directory under `.bench_work/` (deleted at exit),
and drives one `ems` child at a time in a closed loop with one client. A
run's op count is fixed by the workload and `--seconds`, never by elapsed
time.

`--trace 0` times the user-facing commands (`ems match`, `ems serve`) and
reports the end-to-end metrics. `--trace 1` runs the same ops through `ems`
and then in-process through `perfbench-harness`, which records one span per
layer call; every traced output must equal the `ems` output, and the
per-layer metrics are reported. The last stdout line is the result object;
the line before it carries the host provenance. Why each workload and metric
exists: BENCHMARK.json and perfbench/layers.json.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")

# The pair: `ems synth`'s generator over one fixed process tree at 400
# activities and 200 traces per log (about 4.6k edges per side, 21 fixpoint
# iterations per direction). The seed varies the recorded traces, the second
# system's branch weights and its opaque names, not the process shape.
PAIR = {"activities": 400, "traces": 200, "tree-seed": 7}
# The catalog: 4 families of 3 near-duplicate variants plus 116 decoys, each
# with a fixed process tree at 200 activities, 60 traces per log.
CATALOG = {"refs": 128, "families": 4, "variants": 3, "activities": 200, "traces": 60}
K = 3
SERVE_FLAGS = ["--alpha", "0.5", "--exact-labels", "--k", str(K)]
# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = {"pair": 31, "serve": 3}

# `op_s` is the nominal cost of one op on a 2-vCPU host: a run makes
# round(seconds / op_s) ops whatever the host's speed, so memory and
# counters compare at equal op counts.
WORKLOADS = {
    "pair-exact": {"kind": "pair", "match": [], "op_s": 2.0},
    "pair-estimate": {"kind": "pair", "match": ["--estimate", "0"], "op_s": 0.25},
    "serve-cold": {"kind": "serve", "warm": False, "op_s": 0.57},
    "serve-warm": {"kind": "serve", "warm": True, "op_s": 0.27},
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(f"error: {msg}")
    sys.exit(2)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def med(xs):
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------- build and children


def build():
    for need in ("Cargo.toml", "Cargo.lock", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die(f"{need} not found: run from the root of a source checkout")
    env = dict(os.environ)
    target = os.path.join(ROOT, env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    manifest = os.path.join(os.path.relpath(BENCH_DIR, ROOT), "harness", "Cargo.toml")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "ems-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stderr[-4000:])
            die(f"build failed: {' '.join(cmd)}")
    return os.path.join(target, "release", "ems"), os.path.join(target, "release", "perfbench-harness")


def reap(p):
    """Waits for a child; returns (exit code, its peak RSS in MB)."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss / 1024.0


def run_child(cmd):
    """Runs a command to completion: (wall s, exit code, stdout, peak RSS MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, cwd=ROOT, text=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    code, rss = reap(p)
    return time.perf_counter() - t0, code, out, rss


def check(cmd, what):
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stderr[-2000:])
        die(f"{what} failed (exit {r.returncode})")


class Serve:
    """One `ems serve` child over a fresh copy of the pristine store."""

    def __init__(self, ems, pristine, store):
        self.store = store
        shutil.rmtree(store, ignore_errors=True)
        shutil.copytree(pristine, store)
        t0 = time.perf_counter()
        self.p = subprocess.Popen([ems, "serve", "--store", store] + SERVE_FLAGS, cwd=ROOT, text=True,
                                  bufsize=1, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
        # `ems serve` prints this line once the store is open and every
        # reference is admitted.
        line = self.p.stderr.readline()
        self.setup_s = time.perf_counter() - t0
        if "reference(s) from" not in line:
            self.close()
            die(f"ems serve did not start: {line.strip()}")

    def query(self, path):
        """Sends one request; returns (latency s, response line). A child
        that died answers with an empty line, which fails the output check."""
        t0 = time.perf_counter()
        try:
            self.p.stdin.write(json.dumps({"log": path}) + "\n")
            self.p.stdin.flush()
        except BrokenPipeError:
            return time.perf_counter() - t0, ""
        line = self.p.stdout.readline()
        return time.perf_counter() - t0, line.strip()

    def close(self):
        """Ends the child and deletes its store; returns (exit code, peak RSS MB)."""
        try:
            self.p.stdin.close()
        except BrokenPipeError:
            pass
        self.p.stdout.read()
        self.p.stderr.read()
        self.p.stdout.close()
        self.p.stderr.close()
        out = reap(self.p)
        shutil.rmtree(self.store, ignore_errors=True)
        return out


# ---------------------------------------------------------------- inputs (untimed)


def prepare_pair(harness, seed, run_dir):
    d = os.path.join(run_dir, "pair")
    cmd = [harness, "gen-pair", "--seed", str(seed), "--out", d]
    for k, v in PAIR.items():
        cmd += [f"--{k}", str(v)]
    check(cmd, "pair generation")
    # `ems match` on a tiny pair is the per-process fixed cost.
    check([harness, "gen-pair", "--seed", str(seed), "--out", os.path.join(d, "tiny"),
           "--activities", "6", "--traces", "4", "--tree-seed", "1"], "tiny pair generation")
    truth = {}
    with open(os.path.join(d, "truth.tsv")) as f:
        for line in f:
            left, right = line.rstrip("\n").split("\t")
            truth[left] = right
    rel = os.path.relpath(d, ROOT)
    return {"a": os.path.join(rel, "a.xes"), "b": os.path.join(rel, "b.xes"), "truth": truth,
            "tiny": [os.path.join(rel, "tiny", "a.xes"), os.path.join(rel, "tiny", "b.xes")]}


def prepare_catalog(ems, harness, seed, w, ops, run_dir):
    """The catalog and its pristine store: `ems catalog add` for every
    reference, then one empty `ems serve` start so that the reference
    sketches are persisted. Warm runs send one query per family before
    timing and then repeat them; cold runs send distinct new queries."""
    d = os.path.join(run_dir, "catalog")
    n_queries = CATALOG["families"] if w["warm"] else ops
    cmd = [harness, "gen-catalog", "--seed", str(seed), "--out", d, "--queries", str(n_queries)]
    for k, v in CATALOG.items():
        cmd += [f"--{k}", str(v)]
    check(cmd, "catalog generation")
    pristine = os.path.relpath(os.path.join(d, "pristine"), ROOT)
    with open(os.path.join(d, "manifest.json")) as f:
        manifest = json.load(f)
    for ref in manifest["refs"]:
        check([ems, "catalog", "add", "--store", pristine, os.path.join(d, ref["file"])], "ems catalog add")
    # The store holds the reference logs now; dropping the XES copies early
    # spares the host their writeback while the run is timed.
    shutil.rmtree(os.path.join(d, "refs"))
    r = subprocess.run([ems, "serve", "--store", pristine] + SERVE_FLAGS, cwd=ROOT, input="",
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        die(f"priming ems serve failed: {r.stderr.strip()}")
    rel = os.path.relpath(d, ROOT)
    queries = [(os.path.join(rel, q["file"]), q["family"]) for q in manifest["queries"]]
    warm = queries if w["warm"] else []
    plan = [queries[i % len(queries)] for i in range(ops)] if w["warm"] else queries
    return {"pristine": pristine, "store": os.path.relpath(os.path.join(run_dir, "store"), ROOT),
            "warm": warm, "plan": plan}


# ---------------------------------------------------------------- output checks


def pair_output(output, truth):
    """(valid, F-measure against the ground truth) of printed correspondences.
    Valid: every line is `left<TAB>right<TAB>score` with a score in [0, 1],
    and no event appears twice on either side."""
    pairs = []
    for line in output.splitlines():
        parts = line.split("\t")
        try:
            if len(parts) != 3 or not 0.0 <= float(parts[2]) <= 1.0:
                return False, 0.0
        except ValueError:
            return False, 0.0
        pairs.append((parts[0], parts[1]))
    lefts, rights = {p[0] for p in pairs}, {p[1] for p in pairs}
    if not pairs or len(lefts) != len(pairs) or len(rights) != len(pairs):
        return False, 0.0
    hits = sum(1 for left, right in pairs if truth.get(left) == right)
    if hits == 0:
        return True, 0.0
    precision, recall = hits / len(pairs), hits / len(truth)
    return True, 2 * precision * recall / (precision + recall)


def serve_output(line, family):
    """(correct, pruned) of one serve response. Correct: a well-formed
    ranking of k references with descending scores in [0, 1], every
    reference either evaluated or pruned, and the top k exactly the query's
    family (its near-duplicate variants)."""
    try:
        r = json.loads(line)
        scores = [x["ems_score"] for x in r["ranked"]]
        names = {x["ref"] for x in r["ranked"]}
        pruned = r["pruned"]
        ok = (len(scores) == K and pruned + r["evaluated"] == CATALOG["refs"]
              and all(0.0 <= s <= 1.0 for s in scores) and scores == sorted(scores, reverse=True))
    except (ValueError, KeyError, TypeError):
        return False, -1
    return ok and names == {f"f{family}v{v}" for v in range(CATALOG["variants"])}, pruned


def response_digest(lines):
    """Digest of serve responses without the query path, which names the
    run's private directory."""
    canon = []
    for line in lines:
        try:
            r = json.loads(line)
            r.pop("query", None)
            canon.append(json.dumps(r, sort_keys=True))
        except ValueError:
            canon.append(line)
    return digest("\n".join(canon))


def ledger_check(key, program, counters):
    """Deterministic counters must repeat exactly for the same workload,
    seed, op count and program: the first run records them, later runs in
    the same checkout compare against it."""
    d = os.path.join(WORK, "ledger")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{key}.json")
    entry = None
    if os.path.isfile(path):
        with open(path) as f:
            entry = json.load(f)
    if entry is None or entry.get("program") != program:
        entry = {"program": program, "counters": {}}
    ok = True
    for k, v in counters.items():
        first = entry["counters"].setdefault(k, v)
        if first != v:
            log(f"determinism: {k} = {v}, the first run of this seed had {first}")
            ok = False
    with open(path, "w") as f:
        json.dump(entry, f, indent=1, sort_keys=True)
    return ok


# ---------------------------------------------------------------- end-to-end runs


def e2e_pair(w, ems, inputs, ops):
    setups = []
    for _ in range(SETUP_REPEATS["pair"]):
        wall, code, _, _ = run_child([ems, "match"] + inputs["tiny"] + ["--quiet"] + w["match"])
        if code != 0:
            die(f"ems match on the tiny pair exited {code}")
        setups.append(wall)
    cmd = [ems, "match", inputs["a"], inputs["b"], "--quiet"] + w["match"]
    lat, rss, failed, outputs = [], [], 0, []
    t0 = time.perf_counter()
    for _ in range(ops):
        wall, code, out, peak = run_child(cmd)
        lat.append(wall)
        rss.append(peak)
        failed += 0 if code == 0 and pair_output(out, inputs["truth"])[0] else 1
        outputs.append(out)
    total = time.perf_counter() - t0
    # Every op matched the same pair: any difference is nondeterminism.
    deterministic = all(o == outputs[0] for o in outputs)
    if not deterministic:
        log("determinism: ops on the same pair printed different correspondences")
    quality = pair_output(outputs[0], inputs["truth"])[1]
    counters = {"quality": quality, "output": digest(outputs[0])}
    return lat, total, setups, max(rss), failed, deterministic, counters, quality


def e2e_serve(ems, inputs, ops):
    setups, lat, responses, pruned = [], [], {}, []
    failed, hits, deterministic = 0, 0, True
    for rep in range(SETUP_REPEATS["serve"]):
        s = Serve(ems, inputs["pristine"], inputs["store"])
        warm_s = 0.0
        for path, _ in inputs["warm"]:
            wall, line = s.query(path)
            warm_s += wall
            if responses.setdefault(path, line) != line:
                deterministic = False
                log(f"determinism: warm query {path} got a different response")
        setups.append(s.setup_s + warm_s)
        if rep + 1 < SETUP_REPEATS["serve"]:
            code, _ = s.close()
            if code != 0:
                die(f"ems serve exited {code}")
            continue
        t0 = time.perf_counter()
        for path, family in inputs["plan"]:
            wall, line = s.query(path)
            lat.append(wall)
            ok, p = serve_output(line, family)
            failed += 0 if ok else 1
            hits += 1 if ok else 0
            pruned.append(p)
            # A repeated query must get the identical response.
            if responses.setdefault(path, line) != line:
                deterministic = False
                log(f"determinism: repeated query {path} got a different response")
        total = time.perf_counter() - t0
        code, rss = s.close()
        if code != 0:
            failed = ops
    quality = hits / ops
    counters = {"quality": quality, "pruned": pruned,
                "responses": response_digest(responses[p] for p, _ in inputs["plan"])}
    return lat, total, setups, rss, failed, deterministic, counters, quality


# ---------------------------------------------------------------- traced runs


def span_table(report):
    """Per measured op: self and inclusive seconds and CPU seconds by span
    name, and the op's wall time. A span's self time is its duration minus
    its children's."""
    spans = report["spans"]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    ops = {}
    for i, s in enumerate(spans):
        if s["op"] < 0:
            continue
        o = ops.setdefault(s["op"], {"self": {}, "incl": {}, "cpu": {}, "wall": 0.0})
        dur = s["end"] - s["start"]
        for table, value in (("self", dur - child[i]), ("incl", dur), ("cpu", s.get("cpu", 0.0))):
            o[table][s["name"]] = o[table].get(s["name"], 0.0) + value
        if s["name"] == "op":
            o["wall"] = dur
    return [ops[k] for k in sorted(ops)]


def layer_metrics(report, untraced_p50, quality):
    """Per-layer metrics of a traced run. Layers a workload does not run
    report a 0 share, so every time in seconds here is one that every
    workload measures."""
    table = span_table(report)
    ops = report["ops"]
    setup = {}
    for s in report["spans"]:
        if s["op"] == -1:
            setup[s["name"]] = setup.get(s["name"], 0.0) + s["end"] - s["start"]
    wall = sum(o["wall"] for o in table)

    def self_s(name):
        return med([o["self"].get(name, 0.0) for o in table])

    def share(*names, kind="self"):
        return sum(o[kind].get(n, 0.0) for o in table for n in names) / wall

    def setup_share(name):
        return setup.get(name, 0.0) / setup["setup"] if "setup" in setup else 0.0

    def count(name):
        return med([o["counters"].get(name, 0.0) for o in ops])

    def total(name):
        return sum(o["counters"].get(name, 0.0) for o in ops)

    # CPU is charged on the spans that run the fixpoint pool: the engine
    # calls of the pair pipeline and the exact solves of a serve query.
    pool = ("engine.fwd", "engine.bwd", "catalog.exact")
    cpu = sum(o["cpu"].get(n, 0.0) for o in table for n in pool)
    cpu_wall = sum(o["incl"].get(n, 0.0) for o in table for n in pool)
    evals, retired = total("formula_evals"), total("pruned_evals")
    evaluated, pruned = total("evaluated"), total("pruned")
    traced_p50 = med([o["wall"] for o in table])
    m = {
        "trace.op_s": traced_p50,
        "xes.parse_s": self_s("xes.parse"),
        "depgraph.model_s": self_s("depgraph.model"),
        "depgraph.edges": count("edges"),
        "substrate.build_share": share("substrate.build"),
        "labels.build_share": share("labels.build"),
        "engine.fwd_share": share("engine.fwd"),
        "engine.bwd_share": share("engine.bwd"),
        "engine.solve_share": share("engine.fwd", "engine.bwd", "engine.solve"),
        "engine.iterations": count("iterations"),
        "engine.formula_evals": count("formula_evals"),
        "engine.retired_frac": retired / (evals + retired) if evals + retired else 0.0,
        "engine.cpu_per_wall": cpu / cpu_wall if cpu_wall else 0.0,
        "estimate.pairs": count("estimated_pairs"),
        "core.aggregate_share": share("core.aggregate"),
        "assignment.solve_share": share("assignment.solve"),
        "assignment.pairs": count("assignment_pairs"),
        "catalog.bounds_share": share("catalog.bounds"),
        "catalog.exact_share": share("catalog.exact", kind="incl"),
        "catalog.evaluated": count("evaluated"),
        "catalog.pruned_frac": pruned / (pruned + evaluated) if pruned + evaluated else 0.0,
        "catalog.admit_share": setup_share("catalog.admit"),
        "catalog.pinned_mb": report["setup"].get("pinned_bytes", 0.0) / 1e6,
        "shared.outcome_hit_frac": total("outcome_hits") / evaluated if evaluated else 0.0,
        "shared.substrate_builds": count("substrate_builds"),
        "shared.label_builds": count("label_builds"),
        "store.open_share": setup_share("store.open"),
        "store.bytes_written": count("store_bytes_written"),
        "output.quality": quality,
        "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0 if untraced_p50 else 0.0,
        "trace.other_s": self_s("op"),
    }
    # Layer self times must add up to each op's wall time: the root span's
    # own time, which no layer span covers, stays within 5% of it.
    coverage_ok = all(o["self"].get("op", 0.0) <= 0.05 * o["wall"] for o in table)
    if not coverage_ok:
        log("trace: layer spans cover less than 95% of some op's wall time")
    names = sorted({n for o in table for n in o["self"]})
    shares = {n: round(share(n), 3) for n in names}
    log(f"trace: self-time share of traced op wall by span: {json.dumps(shares)}")
    return m, coverage_ok


def run_trace(harness, args):
    report_path = os.path.join(WORK, f"trace-{os.getpid()}.json")
    check([harness] + args + ["--out", report_path], "traced run")
    with open(report_path) as f:
        report = json.load(f)
    os.remove(report_path)
    return report


def traced_pair(w, ems, harness, inputs, ops):
    lat, outputs, failed = [], [], 0
    for _ in range(ops):
        wall, code, out, _ = run_child([ems, "match", inputs["a"], inputs["b"], "--quiet"] + w["match"])
        lat.append(wall)
        outputs.append(out)
        failed += 0 if code == 0 and pair_output(out, inputs["truth"])[0] else 1
    cmd = ["trace-pair", "--log1", inputs["a"], "--log2", inputs["b"], "--ops", str(ops)]
    report = run_trace(harness, cmd + (["--estimate", w["match"][1]] if w["match"] else []))
    same = [o["output"] for o in report["ops"]] == outputs
    if not same:
        log("fidelity: a traced op printed different correspondences than ems match")
    metrics, coverage_ok = layer_metrics(report, med(lat), pair_output(outputs[0], inputs["truth"])[1])
    counters = {"formula_evals": metrics["engine.formula_evals"], "iterations": metrics["engine.iterations"],
                "output": digest(outputs[0])}
    return metrics, failed, same and coverage_ok, counters


def traced_serve(ems, harness, inputs, ops):
    plan = inputs["plan"][:ops]
    s = Serve(ems, inputs["pristine"], inputs["store"])
    for path, _ in inputs["warm"]:
        s.query(path)
    lat, lines, failed, hits = [], [], 0, 0
    for path, family in plan:
        wall, line = s.query(path)
        lat.append(wall)
        lines.append(line)
        ok, _ = serve_output(line, family)
        failed += 0 if ok else 1
        hits += 1 if ok else 0
    if s.close()[0] != 0:
        failed = ops
    store = inputs["store"]
    shutil.copytree(inputs["pristine"], store)
    lists = {}
    for name, items in (("warm", inputs["warm"]), ("queries", plan)):
        lists[name] = os.path.join(os.path.dirname(store), f"{name}.txt")
        with open(lists[name], "w") as f:
            f.write("".join(p + "\n" for p, _ in items))
    cmd = ["trace-serve", "--store", store, "--queries", lists["queries"]] + SERVE_FLAGS
    report = run_trace(harness, cmd + (["--warm", lists["warm"]] if inputs["warm"] else []))
    shutil.rmtree(store, ignore_errors=True)
    same = [o["output"] for o in report["ops"]] == lines
    if not same:
        log("fidelity: a traced query ranked differently than ems serve")
    metrics, coverage_ok = layer_metrics(report, med(lat), hits / ops)
    counters = {"formula_evals": [o["counters"]["formula_evals"] for o in report["ops"]],
                "evaluated": [o["counters"]["evaluated"] for o in report["ops"]],
                "responses": response_digest(lines)}
    return metrics, failed, same and coverage_ok, counters


# ---------------------------------------------------------------- provenance


def provenance():
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = r.stdout.strip() or None
    if rev is None:
        # Not a git checkout: identify the source tree by content.
        h = hashlib.sha256()
        for base in ("Cargo.toml", "Cargo.lock", "crates"):
            path = os.path.join(ROOT, base)
            files = [path] if os.path.isfile(path) else sorted(
                os.path.join(dp, f) for dp, _, fs in os.walk(path) for f in fs)
            for f in files:
                h.update(os.path.relpath(f, ROOT).encode())
                h.update(sha256_file(f).encode())
        rev = "tree-sha256:" + h.hexdigest()[:16]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"rev": rev, "nproc": os.cpu_count(), "cpu": cpu, "kernel": platform.release()}


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description="ems repository benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    w = WORKLOADS[args.workload]
    ems, harness = build()
    ops = max(4, round(args.seconds / w["op_s"]))
    if args.trace:
        # The traced run makes each op twice, once through `ems` and once
        # in-process, so it makes half as many.
        ops = max(4, ops // 2)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        if w["kind"] == "pair":
            inputs = prepare_pair(harness, args.seed, run_dir)
        else:
            inputs = prepare_catalog(ems, harness, args.seed, w, ops, run_dir)
        # Flush the generated inputs now rather than while the run is timed.
        os.sync()
        if args.trace == 0:
            if w["kind"] == "pair":
                r = e2e_pair(w, ems, inputs, ops)
            else:
                r = e2e_serve(ems, inputs, ops)
            lat, total, setups, rss, failed, correct, counters, quality = r
            metrics = {"latency_p50_s": med(lat), "ops_per_s": ops / total, "setup_s": med(setups),
                       "peak_rss_mb": rss}
            log(f"{args.workload}: {ops} ops, {failed} failed; latency p50 {med(lat):.4f} s over {len(lat)} ops; "
                f"setup median {med(setups):.4f} s over {len(setups)}; quality {quality:.4f}")
        elif w["kind"] == "pair":
            metrics, failed, correct, counters = traced_pair(w, ems, harness, inputs, ops)
        else:
            metrics, failed, correct, counters = traced_serve(ems, harness, inputs, ops)
        program = sha256_file(ems)[:16] + sha256_file(harness)[:16]
        key = f"{args.workload}-trace{args.trace}-seed{args.seed}-ops{ops}"
        deterministic = ledger_check(key, program, counters)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    # Units come from the benchmark's declaration, which must list exactly
    # the metrics this mode reports.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        die(f"reported metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    print(json.dumps({"provenance": provenance()}))
    print(json.dumps({
        "correct": bool(correct and deterministic and failed == 0),
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()

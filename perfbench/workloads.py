"""The four benchmark workloads: their inputs, one pass each, and output checks.

Every pass goes through ``morphkv.cli.main`` in this process, the way a
user runs the tool. The seed given to the benchmark becomes the CLI's
``--seed``, which sets the model seed. Checks recompute what the README
promises through arithmetic of their own (occupancy, bytes, eviction
counts, teacher-forced tokens, oracle dominance) and never call the
package's own expectation helpers.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import hashlib
import io
import json
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
ORACLE_BASELINE = ROOT / "tests" / "data" / "oracle_regression.csv"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

DESK = ("full_attention", "morphkv", "morphkv_max", "h2o", "snapkv", "scissorhands", "streamingllm", "protected")
# Labels compare gives the desk configs: morphkv_max and protected are further morphkv runs.
DESK_LABELS = ("full_attention", "morphkv", "morphkv-2", "h2o", "snapkv", "scissorhands", "streamingllm", "morphkv-3")
ORACLE_INSTANCES = 200
# Policies that store one copy per query head (README byte model).
ALL_HEADS = ("h2o", "snapkv")


@dataclass
class PassOutput:
    """What one pass produced, reduced to plain data the checks read."""

    runs: list[dict] = field(default_factory=list)  # one trace dict per decode run
    files: dict[str, bytes] = field(default_factory=dict)  # written outputs by name
    stdout: str = ""
    exit_codes: list[int] = field(default_factory=list)


class Checks:
    """Counts attempted checks and keeps the message of each failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(mk, argv, out: PassOutput) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out.exit_codes.append(mk.cli.main([str(a) for a in argv]))
    out.stdout += buf.getvalue()


def _derived_config(name: str, prompt: int, decode: int, work: Path) -> Path:
    """A shipped config with only the prompt length and decode steps changed."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(CONFIGS / f"{name}.ini")
    parser["run"]["prompt"] = f"random:{prompt}"
    parser["run"]["decode_steps"] = str(decode)
    path = work / f"{name}_p{prompt}_d{decode}.ini"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


# ------------------------------------------------------------ independent arithmetic


def expected_store_occupancy(policy: dict, prompt: int, steps: int, layer: int) -> list[int]:
    """Per-store occupancy after each decode step, from the README rules alone."""
    kind = policy["kind"]
    budget = policy["distant_capacity"] + policy["recent_window"]
    if kind == "morphkv" and layer >= policy["protected_layers"]:
        alive = min(prompt, budget) if policy["compress_prefill"] else prompt
        out = []
        for i in range(steps):
            alive += 1
            if i % policy["eviction_interval"] == 0 and alive > budget:
                alive = budget
            out.append(alive)
        return out
    seen = [prompt + i + 1 for i in range(steps)]
    if kind == "scissorhands":
        return [min(t, policy["recent_window"]) for t in seen]
    if kind == "streamingllm":
        return [min(t, policy["sink_count"] + policy["recent_window"]) for t in seen]
    if kind == "h2o":
        return [prompt + min(i + 1, budget) for i in range(steps)]
    if kind == "snapkv":
        return [min(prompt, policy["prefill_budget"]) + i + 1 for i in range(steps)]
    return seen


def analytic_bytes(trace: dict, occupancy_total: int) -> int:
    model = trace["model"]
    copies = model["n_query_heads"] // model["n_kv_heads"] if trace["policy"]["kind"] in ALL_HEADS else 1
    return occupancy_total * copies * model["head_dim"] * 2 * trace["bytes_per_scalar"]


def full_attention_final_bytes(trace: dict) -> int:
    model = trace["model"]
    entries = len(trace["prompt"]) + len(trace["steps"])
    return entries * model["n_kv_heads"] * model["n_layers"] * model["head_dim"] * 2 * trace["bytes_per_scalar"]


def check_trace(checks: Checks, trace: dict, label: str) -> None:
    """Occupancy, bytes and eviction counts of one run against the README rules."""
    model, policy, steps = trace["model"], trace["policy"], trace["steps"]
    prompt = len(trace["prompt"])
    layers, heads = model["n_layers"], model["n_kv_heads"]
    want = [expected_store_occupancy(policy, prompt, len(steps), layer) for layer in range(layers)]
    occ_ok = all(
        rec["occupancy"][layer][head] == want[layer][i]
        for i, rec in enumerate(steps)
        for layer in range(layers)
        for head in range(heads)
    )
    checks.check(occ_ok, f"{label}: per-store occupancy differs from the README rule")
    bytes_ok = all(rec["bytes"] == analytic_bytes(trace, sum(map(sum, rec["occupancy"]))) for rec in steps)
    checks.check(bytes_ok, f"{label}: byte stream differs from the analytic byte count")
    prev = [[prompt - len(trace["prefill_evictions"][layer][head]) for head in range(heads)] for layer in range(layers)]
    evict_ok = True
    for rec in steps:
        for layer in range(layers):
            for head in range(heads):
                now = rec["occupancy"][layer][head]
                evict_ok &= len(rec["evicted"][layer][head]) == prev[layer][head] + 1 - now
                prev[layer][head] = now
    checks.check(evict_ok, f"{label}: eviction log does not account for the occupancy change")


def _check_digests(checks: Checks, workload: str, actual: dict[str, str]) -> None:
    recorded = json.loads(DIGESTS.read_text())[workload]
    for name, digest in recorded.items():
        checks.check(actual.get(name) == digest, f"{workload}: {name} differs from the digest recorded for the default seed")


# --------------------------------------------------------------------- workloads


class Workload:
    name = ""
    default_seed = 0

    def config_paths(self, work: Path) -> list[Path]:
        raise NotImplementedError

    def prepare(self, work: Path) -> None:
        """Write derived inputs into the work directory (not timed)."""

    def run_pass(self, mk, seed: int, work: Path) -> PassOutput:
        """The timed part: CLI invocations only."""
        raise NotImplementedError

    def collect(self, out: PassOutput, work: Path) -> None:
        """Read what the pass wrote (not timed)."""

    def check(self, checks: Checks, out: PassOutput, seed: int) -> dict[str, float]:
        """Check one pass; return its deterministic quality values."""
        raise NotImplementedError

    def digests(self, out: PassOutput) -> dict[str, str]:
        """Named digests of the outputs: equal across passes and traced or not,
        and equal to ``digests.json`` at the default seed."""
        raise NotImplementedError


class _SingleRuns(Workload):
    """Free-running ``morphkv run`` invocations of derived configs."""

    configs: tuple[str, ...] = ()
    prompt = 0
    decode = 0

    def config_paths(self, work):
        return [work / f"{name}_p{self.prompt}_d{self.decode}.ini" for name in self.configs]

    def prepare(self, work):
        for name in self.configs:
            _derived_config(name, self.prompt, self.decode, work)

    def run_pass(self, mk, seed, work):
        out = PassOutput()
        for path in self.config_paths(work):
            _cli(mk, ["run", "--config", path, "--seed", seed], out)
        return out

    def check(self, checks, out, seed):
        checks.check(out.exit_codes == [0] * len(self.configs), f"{self.name}: CLI exit codes {out.exit_codes}")
        checks.check(len(out.runs) == len(self.configs), f"{self.name}: expected {len(self.configs)} runs")
        for name, trace in zip(self.configs, out.runs):
            checks.check(trace["model"]["seed"] == seed, f"{self.name}/{name}: model seed is not the workload seed")
            checks.check(len(trace["prompt"]) == self.prompt and len(trace["steps"]) == self.decode,
                         f"{self.name}/{name}: wrong prompt or decode length")
            check_trace(checks, trace, f"{self.name}/{name}")
        policy_run = next(t for t in out.runs if t["policy"]["kind"] != "full_attention")
        return {"kv_bytes_ratio": policy_run["steps"][-1]["bytes"] / full_attention_final_bytes(policy_run)}

    def digests(self, out):
        found = {}
        for name, trace in zip(self.configs, out.runs):
            evictions = [trace["prefill_evictions"]] + [rec["evicted"] for rec in trace["steps"]]
            found[f"{name}.tokens"] = sha256(json.dumps([rec["token"] for rec in trace["steps"]]).encode())
            found[f"{name}.bytes"] = sha256(json.dumps([rec["bytes"] for rec in trace["steps"]]).encode())
            found[f"{name}.evictions"] = sha256(json.dumps(evictions).encode())
        return found


class LongPrompt(_SingleRuns):
    name = "long_prompt"
    configs = ("full_attention", "morphkv")
    prompt, decode = 768, 256


class LongDecode(_SingleRuns):
    name = "long_decode"
    configs = ("morphkv",)
    prompt, decode = 64, 1024


class DeskCompare(Workload):
    name = "desk_compare"

    def config_paths(self, work):
        return [CONFIGS / f"{name}.ini" for name in DESK]

    def run_pass(self, mk, seed, work):
        out = PassOutput()
        _cli(mk, ["compare", *self.config_paths(work), "--seed", seed, "--out", work / "compare"], out)
        return out

    def collect(self, out, work):
        for path in sorted((work / "compare").iterdir()):
            out.files[path.name] = path.read_bytes()

    def check(self, checks, out, seed):
        checks.check(out.exit_codes == [0], f"desk_compare: CLI exit codes {out.exit_codes}")
        traces = {name[len("trace_"):-len(".json")]: json.loads(data)
                  for name, data in out.files.items() if name.startswith("trace_")}
        checks.check(sorted(traces) == sorted(DESK_LABELS), f"desk_compare: trace files {sorted(traces)}")
        reference = traces.get("full_attention")
        if reference is None:
            return {}
        tokens = [rec["token"] for rec in reference["steps"]]
        for label, trace in traces.items():
            checks.check(trace["model"]["seed"] == seed, f"desk_compare/{label}: model seed is not the workload seed")
            checks.check(trace["prompt"] == reference["prompt"] and [rec["token"] for rec in trace["steps"]] == tokens,
                         f"desk_compare/{label}: teacher-forced token stream differs from the reference")
            check_trace(checks, trace, f"desk_compare/{label}")
        rows = list(csv.DictReader(io.StringIO(out.files["compare.csv"].decode())))
        for label, trace in traces.items():
            same = len(rows) == len(trace["steps"]) and all(
                int(row[f"bytes_{label}"]) == rec["bytes"]
                and int(row[f"occupancy_{label}"]) == sum(map(sum, rec["occupancy"]))
                for row, rec in zip(rows, trace["steps"])
            )
            checks.check(same, f"desk_compare/{label}: compare.csv disagrees with the trace")
        summary = {row["label"]: row for row in csv.DictReader(io.StringIO(out.files["summary.csv"].decode()))}
        full_final = full_attention_final_bytes(reference)
        ratios, errors = [], []
        for label, trace in traces.items():
            row = summary.get(label, {})
            final = trace["steps"][-1]["bytes"]
            checks.check(row.get("final_bytes") == str(final) and row.get("final_ratio") == f"{final / full_final:.17g}",
                         f"desk_compare/{label}: summary.csv final bytes or ratio is wrong")
            if label != "full_attention":
                ratios.append(final / full_final)
                errors.append(float(row.get("mean_error") or "nan"))
        return {"kv_bytes_ratio": statistics.fmean(ratios), "shadow_err_mean": statistics.fmean(errors)}

    def digests(self, out):
        return {name: sha256(data) for name, data in out.files.items()}


class OracleSweep(Workload):
    name = "oracle_sweep"
    default_seed = 100

    def config_paths(self, work):
        return [CONFIGS / "oracle_tiny.ini"]

    def run_pass(self, mk, seed, work):
        argv = ["oracle", "--config", CONFIGS / "oracle_tiny.ini", "--instances", ORACLE_INSTANCES,
                "--seed", seed, "--out-file", work / "oracle.csv"]
        if seed == self.default_seed:
            argv += ["--baseline", ORACLE_BASELINE]
        out = PassOutput()
        _cli(mk, argv, out)
        return out

    def collect(self, out, work):
        out.files["oracle.csv"] = (work / "oracle.csv").read_bytes()

    def check(self, checks, out, seed):
        checks.check(out.exit_codes == [0], f"oracle_sweep: CLI exit codes {out.exit_codes}")
        rows = list(csv.DictReader(io.StringIO(out.files["oracle.csv"].decode())))
        policies = ("morphkv_sum", "morphkv_max", "scissorhands", "streamingllm", "h2o")
        checks.check(len(rows) == ORACLE_INSTANCES * len(policies), f"oracle_sweep: {len(rows)} rows")
        seeds = sorted({int(row["instance_seed"]) for row in rows})
        checks.check(seeds == list(range(seed, seed + ORACLE_INSTANCES)), "oracle_sweep: instance seeds do not follow the workload seed")
        checks.check(all(float(r["error"]) >= float(r["optimal_error"]) - 1e-12 for r in rows),
                     "oracle_sweep: a policy beat the exhaustive optimum")
        means = {p: statistics.fmean(float(r["error"]) for r in rows if r["policy"] == p) for p in policies}
        checks.check(means["morphkv_sum"] <= means["scissorhands"],
                     "oracle_sweep: morphkv_sum mean error is above the scissorhands mean")
        if seed == self.default_seed:
            checks.check(out.files["oracle.csv"] == ORACLE_BASELINE.read_bytes(),
                         "oracle_sweep: CSV is not byte-equal to tests/data/oracle_regression.csv")
            checks.check("matches baseline" in out.stdout, "oracle_sweep: the CLI baseline check did not pass")
        optimal = statistics.fmean(float(r["optimal_error"]) for r in rows if r["policy"] == "morphkv_sum")
        return {"oracle_gap": means["morphkv_sum"] - optimal}

    def digests(self, out):
        return {"oracle.csv": sha256(out.files["oracle.csv"])}


WORKLOADS = {w.name: w for w in (LongPrompt(), LongDecode(), DeskCompare(), OracleSweep())}


def check_pass(workload: Workload, checks: Checks, out: PassOutput, seed: int) -> tuple[dict[str, float], dict[str, str]]:
    """All per-pass checks, plus the recorded digests at the default seed.

    Returns the pass's deterministic quality values and its digests in the
    form ``digests.json`` keeps them (output digests plus ``value.*``).
    """
    values = workload.check(checks, out, seed)
    found = {**workload.digests(out), **{f"value.{k}": repr(v) for k, v in values.items()}}
    if seed == workload.default_seed:
        _check_digests(checks, workload.name, found)
    return values, found


def clean_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)

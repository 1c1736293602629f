"""jisc-verify: AST/call-graph contract analyzer for the JISC repo.

Checks (see DESIGN.md "Analysis contracts"):
  determinism           no wall-clock / PRNG / unordered-iteration on paths
                        reaching deterministic serialization roots
  coordinator-only      no worker-reachable path into JISC_COORDINATOR_ONLY
                        symbols (transitive)
  obs-null-discipline   every Observability*/TelemetryRegistry* deref is
                        dominated by a null check
  lock-order            the static jisc::MutexLock acquisition graph is
                        acyclic
  naked-thread          std::thread only in the parallel engine (the
                        allowlist in tools/analysis_waivers.json)
  unguarded-mutex       a class with a Mutex names >= 1 JISC_GUARDED_BY /
                        JISC_PT_GUARDED_BY field; no raw std::mutex members
  header-hygiene        src/ headers: JISC_<PATH>_H_ guard, no #pragma once,
                        a direct #include for every std symbol used

Usage:
  python3 tools/jisc_verify [paths...]          # default: src/
  python3 tools/jisc_verify --self-test         # fixture corpus vs golden
  python3 tools/jisc_verify --format json --out findings.json
  python3 tools/jisc_verify --frontend clang --build-dir build

Frontends: `textual` (dependency-free, default fallback) and `clang`
(libclang over compile_commands.json).  `auto` prefers clang when the
bindings load.  Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks as checks_mod          # noqa: E402
import frontend_clang                # noqa: E402
import selftest                      # noqa: E402
import srcmodel                      # noqa: E402
import waivers as waivers_mod        # noqa: E402

# tools/jisc_verify/__main__.py -> repo root is three dirnames up.
REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))


def _check_list(value):
    names = [v.strip() for v in value.split(",") if v.strip()]
    for n in names:
        if n not in checks_mod.CHECKS:
            raise argparse.ArgumentTypeError(
                f"unknown check {n!r}; known: {', '.join(checks_mod.CHECKS)}")
    return names


def make_builder(frontend, build_dir, note=print):
    """Returns (build_model(paths) -> Model, resolved_frontend_name)."""
    if frontend == "clang" or (frontend == "auto"
                               and frontend_clang.available()):
        if not frontend_clang.available():
            raise RuntimeError(
                f"clang frontend requested but unavailable: "
                f"{frontend_clang.unavailable_reason()}")
        return (lambda paths: frontend_clang.build_model_clang(
            paths, build_dir)), "clang"
    if frontend == "auto":
        note(f"note: libclang unavailable "
             f"({frontend_clang.unavailable_reason()}); "
             f"using textual frontend")
    return srcmodel.build_model_textual, "textual"


def _emit_human(findings, waived, out):
    for f in findings:
        out(f"{f.file}:{f.line}: [{f.check}] {f.message}")
    if waived:
        out(f"-- {len(waived)} finding(s) suppressed by waivers:")
        for f in waived:
            out(f"   {f.file}:{f.line}: [{f.check}] {f.symbol} (waived)")
    out(f"jisc-verify: {len(findings)} finding(s), {len(waived)} waived")


def _emit_markdown(findings, waived, out):
    out("| check | file:line | symbol | detail |")
    out("| --- | --- | --- | --- |")
    if not findings:
        out("| _none_ | | | all checks clean |")
    for f in findings:
        msg = f.message.replace("|", "\\|")
        out(f"| `{f.check}` | `{f.file}:{f.line}` | `{f.symbol}` | {msg} |")
    out("")
    out(f"**{len(findings)} finding(s), {len(waived)} waived.**")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="jisc_verify",
        description="AST/call-graph contract analyzer (see DESIGN.md).")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to analyze "
                             "(default: src/)")
    parser.add_argument("--frontend", choices=("auto", "textual", "clang"),
                        default="auto")
    parser.add_argument("--build-dir", default=os.path.join(
        REPO_ROOT, "build"), help="directory holding compile_commands.json")
    parser.add_argument("--checks", type=_check_list, default=None,
                        metavar="C1,C2",
                        help="subset of checks to run")
    parser.add_argument("--config", default=None,
                        help="waiver config path (default: "
                             "tools/analysis_waivers.json)")
    parser.add_argument("--format", choices=("human", "json", "markdown"),
                        default="human")
    parser.add_argument("--out", default=None,
                        help="also write JSON findings to this file")
    parser.add_argument("--lock-follow-receivers", action="store_true",
                        help="lock-order: follow receiver-qualified calls "
                             "too (deeper, noisier; nightly mode)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture corpus against the golden "
                             "findings file")
    parser.add_argument("--update-golden", action="store_true",
                        help="with --self-test: rewrite the golden file")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args(argv)

    if args.list_checks:
        for c in checks_mod.CHECKS:
            print(c)
        return 0

    note = (lambda *a: print(*a, file=sys.stderr))
    try:
        build_model, resolved = make_builder(args.frontend, args.build_dir,
                                             note=note)
    except RuntimeError as e:
        note(f"jisc-verify: {e}")
        return 2

    if args.self_test:
        return selftest.run_self_test(
            REPO_ROOT, build_model, update_golden=args.update_golden)

    paths = args.paths or [os.path.join(REPO_ROOT, "src")]
    try:
        files = srcmodel.gather_cpp_files(paths)
    except FileNotFoundError as e:
        note(f"jisc-verify: no such path: {e}")
        return 2
    if not files:
        note("jisc-verify: no .h/.cc files found")
        return 2

    try:
        config = waivers_mod.load_config(REPO_ROOT, args.config)
    except waivers_mod.ConfigError as e:
        note(f"jisc-verify: {e}")
        return 2
    waivers = waivers_mod.Waivers(config, REPO_ROOT)
    model = build_model(files)
    findings, waived = checks_mod.run_checks(
        model, REPO_ROOT, waivers, selected=args.checks,
        follow_receivers=args.lock_follow_receivers)

    if args.out:
        payload = {
            "frontend": resolved,
            "findings": [f.to_json() for f in findings],
            "waived": [f.to_json() for f in waived],
        }
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")

    if args.format == "json":
        json.dump({"frontend": resolved,
                   "findings": [f.to_json() for f in findings],
                   "waived": [f.to_json() for f in waived]},
                  sys.stdout, indent=2)
        print()
    elif args.format == "markdown":
        _emit_markdown(findings, waived, print)
    else:
        _emit_human(findings, waived, print)

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test: run the checks over the seeded-violation fixture corpus and
compare against the golden findings file.

The corpus (tests/static_analysis/fixtures/) seeds violations of every
check plus clean near-miss fixtures that must stay silent; paths are
relative to the corpus root, so fixtures for the src/-scoped checks live
under its src/ subdirectory.  The golden file pins (check, file, line,
symbol) exactly — any drift in either direction (missed seeded violation,
or a new false positive on a clean fixture) fails.  `--update-golden`
rewrites the file after intentional check changes; review the diff.
"""

import json
import os

import checks as checks_mod
import srcmodel
import waivers as waivers_mod


def fixtures_dir(repo_root):
    return os.path.join(repo_root, "tests", "static_analysis", "fixtures")


def golden_path(repo_root):
    return os.path.join(repo_root, "tests", "static_analysis",
                        "golden_findings.json")


def run_self_test(repo_root, build_model, update_golden=False, out=print):
    fdir = fixtures_dir(repo_root)
    files = srcmodel.gather_cpp_files([fdir])
    if not files:
        out(f"self-test: no fixtures under {fdir}")
        return 2
    model = build_model(files)
    # Fixtures carry their own comment waivers; the repo's file-level
    # waivers must not leak in, so the corpus runs with an empty config
    # (deterministic roots stay at the default).
    waivers = waivers_mod.Waivers({}, fdir)
    findings, waived = checks_mod.run_checks(model, fdir, waivers)
    got = sorted(f.key() for f in findings)

    gpath = golden_path(repo_root)
    if update_golden:
        with open(gpath, "w", encoding="utf-8") as f:
            json.dump([{"check": c, "file": p, "line": l, "symbol": s}
                       for c, p, l, s in got], f, indent=2)
            f.write("\n")
        out(f"self-test: wrote {len(got)} golden findings to {gpath}")
        return 0

    try:
        with open(gpath, encoding="utf-8") as f:
            golden = sorted(
                (e["check"], e["file"], e["line"], e["symbol"])
                for e in json.load(f))
    except (OSError, ValueError, KeyError) as e:
        out(f"self-test: cannot read golden file {gpath}: {e}")
        return 2

    missing = [g for g in golden if g not in set(got)]
    extra = [g for g in got if g not in set(golden)]
    if not missing and not extra:
        out(f"self-test: OK — {len(got)} findings match golden "
            f"({len(waived)} waived sites exercised)")
        return 0
    for g in missing:
        out(f"self-test: MISSING expected finding: {g}")
    for g in extra:
        out(f"self-test: UNEXPECTED finding: {g}")
    out(f"self-test: FAIL — {len(missing)} missing, {len(extra)} "
        f"unexpected (golden: {gpath})")
    return 1

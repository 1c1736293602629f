"""Waiver handling shared by all jisc-verify checks.

Two layers, both counted and reported so waived findings stay visible:

  * Per-site comment waivers:

        // jisc-verify: allow(<check>) — <reason>

    A waiver covers its own line and the next code line.  The separator
    may be an em-dash, a hyphen, or a colon; a non-empty reason is
    required (a bare allow() is itself a finding).

  * File-level waivers from tools/analysis_waivers.json: entries of
    {"path", "checks", "reason"} suppress a whole file for the named
    checks — used where a class invariant makes per-site guards redundant
    (e.g. a constructor JISC_CHECK).  The same file holds the determinism
    roots and the naked-thread check's std::thread allowlist.
"""

import json
import os
import re

WAIVER_RE = re.compile(
    r"jisc-verify:\s*allow\(\s*(?P<check>[\w-]+)\s*\)\s*"
    r"(?:[—:-]\s*)?(?P<reason>.*)")

CONFIG_BASENAME = "analysis_waivers.json"


class Waivers:
    def __init__(self, config, repo_root):
        self.repo_root = repo_root
        self.file_waivers = []   # [(relpath, {checks}, reason)]
        self.bad_waivers = []    # findings-to-be: allow() with no reason
        self._site_cache = {}    # path -> {(check, line)}
        for entry in config.get("file_waivers", []):
            self.file_waivers.append((
                entry["path"], set(entry["checks"]), entry.get("reason", "")))
        self.deterministic_roots = config.get(
            "deterministic_roots", ["SerializeDeterministic"])
        self.naked_thread_allowlist = config.get("naked_thread_allowlist", [])

    def _rel(self, path):
        try:
            return os.path.relpath(path, self.repo_root)
        except ValueError:
            return path

    def _site_waivers(self, path, text):
        if path in self._site_cache:
            return self._site_cache[path]
        sites = set()
        for i, line in enumerate(text.splitlines(), start=1):
            m = WAIVER_RE.search(line)
            if not m:
                continue
            if not m.group("reason").strip():
                self.bad_waivers.append((self._rel(path), i))
                continue
            sites.add((m.group("check"), i))
            sites.add((m.group("check"), i + 1))
        self._site_cache[path] = sites
        return sites

    def is_waived(self, check, path, line, files):
        rel = self._rel(path)
        for wpath, checks, _ in self.file_waivers:
            if rel == wpath and check in checks:
                return True
        text = files.get(path)
        if text is None:
            return False
        return (check, line) in self._site_waivers(path, text)


class ConfigError(Exception):
    """The waiver config cannot be used (a usage error: exit 2)."""


def load_config(repo_root, explicit_path=None):
    """The waiver config as a dict.  A missing default file is an empty
    config; an explicit path that does not exist, or a file that is not a
    JSON object, raises ConfigError."""
    path = explicit_path or os.path.join(repo_root, "tools", CONFIG_BASENAME)
    if explicit_path is None and not os.path.exists(path):
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            config = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read waiver config {path}: "
                          f"{e.strerror}") from e
    except ValueError as e:
        raise ConfigError(f"waiver config {path} is not valid JSON: "
                          f"{e}") from e
    if not isinstance(config, dict):
        raise ConfigError(f"waiver config {path} is not a JSON object")
    return config

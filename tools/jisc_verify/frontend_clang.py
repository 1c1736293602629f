"""libclang frontend for jisc-verify.

Consumes compile_commands.json via clang.cindex, using the real AST for the
parts the textual frontend has to approximate: function-definition
discovery (extents, enclosing class, template/operator edge cases), field
type resolution (canonical types for Observability*/TelemetryRegistry*
pointers and unordered containers), and JISC_COORDINATOR_ONLY attribute
collection (the macro expands to an annotate attribute under clang).

Per-body site extraction (calls, guard regions, lock extents) is delegated
to the same code paths as the textual frontend — srcmodel._extract_sites —
over the exact body extents the AST reports.  That keeps the two frontends
finding-for-finding identical on the fixture corpus while the AST removes
the textual frontend's discovery approximations.

Requires the `clang` python package and a matching libclang shared object;
`available()` reports whether both load.  CI pip-caches libclang; local
runs fall back to the textual frontend automatically under
`--frontend=auto`.
"""

import json
import os

import srcmodel

_cindex = None
_unavailable_reason = None


def _load_cindex():
    global _cindex, _unavailable_reason
    if _cindex is not None or _unavailable_reason is not None:
        return _cindex
    try:
        from clang import cindex
    except ImportError as e:
        _unavailable_reason = f"python clang bindings not importable: {e}"
        return None
    try:
        cindex.Index.create()
    except Exception as e:  # libclang .so missing or version-mismatched
        _unavailable_reason = f"libclang not loadable: {e}"
        return None
    _cindex = cindex
    return _cindex


def available():
    return _load_cindex() is not None


def unavailable_reason():
    _load_cindex()
    return _unavailable_reason or ""


def _compile_args(build_dir, path):
    db_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(db_path):
        return None
    with open(db_path, encoding="utf-8") as f:
        db = json.load(f)
    for entry in db:
        src = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        if os.path.normpath(path) == src:
            args = entry.get("arguments")
            if args is None:
                import shlex
                args = shlex.split(entry.get("command", ""))
            # Drop compiler, -c/-o pairs and the input file.
            out, skip = [], False
            for a in args[1:]:
                if skip:
                    skip = False
                    continue
                if a in ("-c",):
                    continue
                if a in ("-o",):
                    skip = True
                    continue
                if os.path.normpath(
                        os.path.join(entry.get("directory", ""), a)) == src:
                    continue
                out.append(a)
            return out, entry.get("directory", "")
    return None


def build_model_clang(paths, build_dir):
    """Builds a Model using libclang; raises RuntimeError if unavailable."""
    cindex = _load_cindex()
    if cindex is None:
        raise RuntimeError(unavailable_reason())
    CursorKind = cindex.CursorKind

    model = srcmodel.Model()
    files = {}
    for p in sorted(paths):
        try:
            with open(p, encoding="utf-8") as f:
                files[p] = f.read()
        except OSError:
            continue
    model.files = files
    stripped = {p: srcmodel.strip_comments(t) for p, t in files.items()}

    # Field tables, shared across TUs (keyed by class name, like the
    # textual frontend, so _extract_sites sees the same shape).
    cls_fields_obs = {}
    cls_fields_unordered = {}
    seen_defs = set()   # (path, offset) — headers parse in many TUs

    index = cindex.Index.create()
    tu_sources = [p for p in files if p.endswith(".cc")]
    header_only = [p for p in files if p.endswith(".h")]

    def visit_fields(cursor):
        cls = cursor.spelling
        obs = cls_fields_obs.setdefault(cls, {})
        unordered = cls_fields_unordered.setdefault(cls, set())
        for child in cursor.get_children():
            if child.kind != CursorKind.FIELD_DECL:
                continue
            t = child.type.get_canonical().spelling
            for ptr_t in srcmodel.OBS_TYPES:
                if ptr_t in t and "*" in t:
                    obs[child.spelling] = ptr_t
                elif f"unique_ptr<" in t and ptr_t in t:
                    obs[child.spelling] = ptr_t
            if "unordered_map<" in t or "unordered_set<" in t or \
                    "unordered_multimap<" in t or \
                    "unordered_multiset<" in t or "FlatMap<" in t:
                unordered.add(child.spelling)

    def visit_function(cursor, path):
        extent = cursor.extent
        body = None
        for child in cursor.get_children():
            if child.kind == CursorKind.COMPOUND_STMT:
                body = child
        if body is None:
            return
        key = (path, extent.start.offset)
        if key in seen_defs:
            return
        seen_defs.add(key)
        sem = cursor.semantic_parent
        cls = sem.spelling if sem is not None and sem.kind in (
            CursorKind.CLASS_DECL, CursorKind.STRUCT_DECL) else ""
        fn = srcmodel.Function(
            name=cursor.spelling, cls=cls, file=path,
            line=extent.start.line)
        for child in cursor.get_children():
            if child.kind == CursorKind.ANNOTATE_ATTR and \
                    "coordinator" in child.spelling:
                fn.coordinator_only = True
                model.coordinator_marks.add((cls, cursor.spelling))
        raw = files[path]
        sig_line = extent.start.line
        above = "\n".join(raw.splitlines()[max(0, sig_line - 4):sig_line])
        if cursor.spelling == "WorkerLoop" or \
                srcmodel._WORKER_MARK_RE.search(above):
            fn.worker_entry = True
        code = stripped[path]
        open_pos = body.extent.start.offset
        body_text = code[open_pos:body.extent.end.offset]
        params = ", ".join(
            f"{a.type.spelling} {a.spelling}"
            for a in cursor.get_arguments())
        srcmodel._extract_sites(fn, body_text, open_pos, code,
                                cls_fields_obs, cls_fields_unordered,
                                params)
        model.functions.append(fn)

    def walk(cursor, path_filter):
        for child in cursor.get_children():
            loc_file = child.location.file
            if loc_file is None:
                continue
            path = os.path.normpath(loc_file.name)
            if path not in path_filter:
                continue
            if child.kind in (CursorKind.CLASS_DECL,
                              CursorKind.STRUCT_DECL) and \
                    child.is_definition():
                visit_fields(child)
            if child.kind in (CursorKind.FUNCTION_DECL,
                              CursorKind.CXX_METHOD,
                              CursorKind.CONSTRUCTOR,
                              CursorKind.DESTRUCTOR,
                              CursorKind.FUNCTION_TEMPLATE) and \
                    child.is_definition():
                visit_function(child, path)
            walk(child, path_filter)

    path_filter = {os.path.normpath(p) for p in files}
    parsed_headers = set()
    for src in tu_sources:
        args_dir = _compile_args(build_dir, src)
        args = args_dir[0] if args_dir else ["-std=c++20"]
        try:
            tu = index.parse(src, args=args)
        except cindex.TranslationUnitLoadError:
            continue
        walk(tu.cursor, path_filter)
        for inc in tu.get_includes():
            parsed_headers.add(os.path.normpath(str(inc.include)))

    # Headers never pulled into any TU (fixture corpus headers): parse
    # standalone.
    for h in header_only:
        if os.path.normpath(h) in parsed_headers:
            continue
        try:
            tu = index.parse(h, args=["-x", "c++", "-std=c++20"])
        except cindex.TranslationUnitLoadError:
            continue
        walk(tu.cursor, path_filter)

    # Thread lambdas via the textual scan (libclang models them as
    # unexposed lambda exprs; the textual pass is exact for this repo's
    # `std::thread([...]{...})` idiom).
    for path, code in stripped.items():
        regions = srcmodel._class_regions(code)
        for m in srcmodel._THREAD_LAMBDA_RE.finditer(code):
            brace = code.find("{", m.end())
            if brace == -1:
                continue
            end = srcmodel.match_brace(code, brace)
            cls = srcmodel._innermost_class(regions, m.start())
            fn = srcmodel.Function(
                name="<thread-lambda>", cls=cls, file=path,
                line=srcmodel.line_of(code, m.start()), worker_entry=True)
            srcmodel._extract_sites(fn, code[brace:end], brace, code,
                                    cls_fields_obs, cls_fields_unordered,
                                    "")
            model.functions.append(fn)

    # Textual coordinator-mark sweep as a safety net: macros may be
    # disabled (non-clang configs expand JISC_COORDINATOR_ONLY to
    # nothing), but the token is still in the source.
    for path, code in stripped.items():
        regions = srcmodel._class_regions(code)
        srcmodel._collect_coordinator_marks(code, regions,
                                            model.coordinator_marks)
    return model

#!/usr/bin/env python3
"""Repo-invariant linter: greppable project rules, enforced in CI.

Checks (each is a function named check_*; `--list` prints this list):

  raw-sync          no std::mutex / std::condition_variable (or recursive/
                    shared variants) outside src/util/sync.h — all locking
                    goes through the annotated wrappers so the Clang
                    thread-safety analysis sees it.
  detach            no std::thread::detach(): a detached thread outlives
                    scope invisibly; everything in this repo joins.
  naked-new-array   no `new T[n]`: buffers are std::vector / std::string /
                    std::unique_ptr<T[]>, never manually delete[]'d.
  unchecked-cast    no `static_cast<T>(flags.GetInt(...))`: the typed
                    range-checked getters (GetInt32 / GetUnsigned /
                    GetUInt64 / GetSize / GetIntInRange) exist precisely so
                    narrowing is a diagnostic, not a silent truncation.
  tests-registered  every tests/*.cpp defines at least one TEST — a test
                    file the glob registers but that asserts nothing is a
                    silently-passing hole.
  bench-json        every plain-main bench/*.cpp calls MaybeWriteJson so
                    it can emit the BENCH_*.json perf-trajectory format
                    (Google Benchmark harnesses are exempt: they have
                    --benchmark_format=json).
  doc-refs          backtick-quoted repo paths in the tracked docs (src/,
                    tests/, bench/, tools/, docs/, examples/ prefixes)
                    must resolve — stale references rot fast. Only the
                    first word of a quoted command is a path. The docs
                    are every tracked .md file but the top-level ones
                    outside TOP_LEVEL_DOCS.
  doc-numbers       no timing-, size- or ratio-shaped number (ns, us, ms,
                    s, KiB/MiB/GiB, %, or 2.9x) in the docs outside
                    NUMBER_HOMES: measured numbers live in
                    CHANGES.md, ROADMAP.md, BENCH_*.json and the bench
                    READMEs; other docs name a tuned constant, not its
                    value.
  raw-posix-io      no ::read / ::pread / ::write / ::send / ::recv /
                    ::connect outside src/util/posix_io.cpp — socket and file IO
                    goes through grw::io (EINTR retry, partial-write
                    loops, timeouts, fault-injection sites) so no call
                    path silently skips the hardening.
  raw-mmap          no ::mmap / ::munmap / ::madvise / ::mremap outside
                    src/graph/mapped_file.cpp — file mappings go through
                    MappedFile (its truncation check, its RAII unmap), and
                    buffers are heap arrays, not anonymous mappings.
  adjacency-index-owner
                    no Graph::BuildAdjacencyIndex() call outside
                    src/graph/, the index's own test and its two micro
                    benches: every product path reads by binary search.
  canonical-mask-reference
                    no CanonicalMask() call under src/ or tools/ (its
                    declaration and its definition in
                    src/graphlet/catalog.cpp are not calls): the brute-force
                    k! canonicalization is the reference tests/ and bench/
                    check GraphletClassifier against; product code reads
                    the classifier's table.
  checksum-reference
                    no Fnv1aBytewise() call under src/ or tools/ outside
                    src/graph/format.cpp, where Fnv1a dispatches to it (its
                    declaration is not a call): the byte loop is Fnv1a's
                    fallback and the tests' oracle, and product code
                    checksums through Fnv1a, which runs the kernel.
  engine-pool-share no ForEach( under src/engine/ whose thread cap (its
                    last argument) is missing or is opt.threads /
                    options.threads: every engine fan-out is capped by the
                    run's ChainPool::Share, so concurrent runs split the
                    pool instead of each taking all of it.

Usage:
  tools/lint_invariants.py [--root DIR]   lint the tree (exit 1 on findings)
  tools/lint_invariants.py --self-test    seed each violation in a scratch
                                          tree and assert it is detected
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

CODE_DIRS = ["src", "tests", "bench", "tools", "examples"]
CODE_EXTENSIONS = {".h", ".cpp"}
SYNC_HEADER = os.path.join("src", "util", "sync.h")
POSIX_IO_IMPL = os.path.join("src", "util", "posix_io.cpp")
MAPPED_FILE_IMPL = os.path.join("src", "graph", "mapped_file.cpp")

RAW_SYNC_RE = re.compile(
    r"std::(?:mutex|condition_variable(?:_any)?|recursive_mutex|"
    r"shared_mutex|timed_mutex)\b")
DETACH_RE = re.compile(r"\.\s*detach\s*\(")
NEW_ARRAY_RE = re.compile(r"\bnew\s+[A-Za-z_][\w:<>,\s]*\[")
UNCHECKED_CAST_RE = re.compile(
    r"static_cast<[^<>]+>\s*\(\s*[\w.\->]*\bGetInt\s*\(")
TEST_MACRO_RE = re.compile(r"\b(?:TEST|TEST_F|TEST_P|TYPED_TEST)\s*\(")
GBENCH_INCLUDE_RE = re.compile(r'#include\s+[<"]benchmark/benchmark\.h[>"]')
DOC_REF_RE = re.compile(r"`((?:src|tests|bench|tools|docs|examples)/[^`]+)`")
# Of the top-level markdown only these are the project's own docs; the
# others are working and reference texts that quote other work.
TOP_LEVEL_DOCS = ("README.md", "CHANGES.md", "ROADMAP.md")
NUMBER_HOMES = ("CHANGES.md", "ROADMAP.md",
                os.path.join("bench", "README.md"),
                os.path.join("e2ebench", "README.md"))
# A number with a timing or size unit, a percentage, or an "x" ratio
# written flush against it ("2.9x"; "4x4" and "0x1f" are not ratios).
DOC_NUMBER_RE = re.compile(
    r"\d(?:[\s\u00a0]?(?:ns|[u\u00b5]s|ms|s|KiB|MiB|GiB|KB|MB|GB)\b|%|x\b)")
RAW_POSIX_IO_RE = re.compile(r"::(?:p?read|write|send|recv|connect)\s*\(")
RAW_MMAP_RE = re.compile(r"::(?:mmap|munmap|madvise|mremap)\s*\(")
BUILD_INDEX_RE = re.compile(r"\bBuildAdjacencyIndex\s*\(")
CANONICAL_MASK_RE = re.compile(r"\bCanonicalMask\s*\(")
# `uint32_t CanonicalMask(` declares or defines it; every other use calls it.
CANONICAL_MASK_DECL_RE = re.compile(r"\buint32_t\s+CanonicalMask\s*\(")
REFERENCE_DIRS = ("src", "tools")
FNV_BYTEWISE_RE = re.compile(r"\bFnv1aBytewise\s*\(")
# `uint64_t Fnv1aBytewise(` declares or defines it.
FNV_BYTEWISE_DECL_RE = re.compile(r"\buint64_t\s+Fnv1aBytewise\s*\(")
FNV_DISPATCH = os.path.join("src", "graph", "format.cpp")
ENGINE_DIR = os.path.join("src", "engine") + os.sep
FOR_EACH_RE = re.compile(r"\bForEach\s*\(")
# A cap that bypasses the run's share: the caller's option as is.
UNSHARED_CAP_RE = re.compile(r"^(?:opt|options)\s*(?:\.|->)\s*threads$")
INDEX_OWNER_DIR = os.path.join("src", "graph") + os.sep
INDEX_OWNERS = (
    os.path.join("tests", "adjacency_test.cpp"),
    os.path.join("bench", "bench_micro_hasedge.cpp"),
    os.path.join("bench", "bench_micro_walks.cpp"),
)


def strip_comments(lines):
    """Blanks out // and /* */ comment text, preserving line structure."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
            elif line.startswith("//", i):
                break
            elif line.startswith("/*", i):
                in_block = True
                i += 2
            else:
                result.append(line[i])
                i += 1
        out.append("".join(result))
    return out


def iter_source_files(root):
    for top in CODE_DIRS:
        top_path = os.path.join(root, top)
        for dirpath, _, names in os.walk(top_path):
            for name in sorted(names):
                if os.path.splitext(name)[1] in CODE_EXTENSIONS:
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root)


def read_code_lines(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8",
              errors="replace") as f:
        return strip_comments(f.read().splitlines())


def grep_rule(root, pattern, message, exclude=()):
    findings = []
    for rel in iter_source_files(root):
        if rel in exclude:
            continue
        for lineno, line in enumerate(read_code_lines(root, rel), start=1):
            if pattern.search(line):
                findings.append((rel, lineno, message))
    return findings


def check_raw_sync(root):
    return grep_rule(
        root, RAW_SYNC_RE,
        "raw std::mutex/std::condition_variable — use grw::Mutex/CondVar "
        "from util/sync.h (annotated, lint-visible)",
        exclude=(SYNC_HEADER,))


def check_detach(root):
    return grep_rule(
        root, DETACH_RE,
        "thread .detach() — join it; detached threads outlive their state")


def check_naked_new_array(root):
    return grep_rule(
        root, NEW_ARRAY_RE,
        "naked new[] — use std::vector or std::unique_ptr<T[]>")


def check_unchecked_cast(root):
    return grep_rule(
        root, UNCHECKED_CAST_RE,
        "static_cast around Flags::GetInt — use the range-checked typed "
        "getter (GetInt32/GetUnsigned/GetUInt64/GetSize/GetIntInRange)")


def check_tests_registered(root):
    findings = []
    tests_dir = os.path.join(root, "tests")
    for name in sorted(os.listdir(tests_dir)):
        if not name.endswith(".cpp"):
            continue
        rel = os.path.join("tests", name)
        body = "\n".join(read_code_lines(root, rel))
        if not TEST_MACRO_RE.search(body):
            findings.append((rel, 1,
                             "no TEST/TEST_F macro — the CMake glob would "
                             "register an empty test binary"))
    return findings


def check_bench_json(root):
    findings = []
    bench_dir = os.path.join(root, "bench")
    for name in sorted(os.listdir(bench_dir)):
        if not name.endswith(".cpp"):
            continue
        rel = os.path.join("bench", name)
        with open(os.path.join(root, rel), encoding="utf-8",
                  errors="replace") as f:
            raw = f.read()
        if GBENCH_INCLUDE_RE.search(raw):
            continue  # Google Benchmark harness: has --benchmark_format
        if "MaybeWriteJson" not in raw:
            findings.append((rel, 1,
                             "bench never calls MaybeWriteJson — every "
                             "plain-main bench must support --json"))
    return findings


def _expand_braces(path):
    """`src/x.{h,cpp}` -> [src/x.h, src/x.cpp]; no braces -> [path]."""
    m = re.match(r"^(.*)\{([^{}]+)\}(.*)$", path)
    if not m:
        return [path]
    return [m.group(1) + alt + m.group(3) for alt in m.group(2).split(",")]


def _ref_resolves(root, ref):
    ref = re.sub(r":\d+(-\d+)?$", "", ref)  # strip :line / :line-line
    if any(ch in ref for ch in "*?"):
        return True  # glob-style mention, not a concrete path
    for candidate in _expand_braces(ref):
        full = os.path.join(root, candidate)
        if os.path.exists(full):
            continue
        # `tools/grw_serve` names the binary; its source resolves it.
        if any(os.path.exists(full + ext) for ext in (".cpp", ".h", ".py")):
            continue
        return False
    return True


def _tracked_markdown(root):
    """`git ls-files '*.md'` of a checkout rooted at root, or None."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "ls-files", "-z", "*.md"],
                             capture_output=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None  # no git, or a checkout git refuses to read
    return [p for p in out.decode().split("\0") if p]


def iter_markdown(root):
    """(relative path, lines) of the docs to lint: a checkout's tracked
    markdown, or, where git cannot list it, every .md file outside hidden
    and build directories; at the top level, only TOP_LEVEL_DOCS."""
    rels = _tracked_markdown(root)
    if rels is None:
        rels = []
        for dirpath, dirs, names in os.walk(root):
            dirs[:] = [d for d in dirs
                       if not d.startswith((".", "build"))]
            rels += [os.path.relpath(os.path.join(dirpath, n), root)
                     for n in names if n.endswith(".md")]
    for rel in sorted(rels):
        full = os.path.join(root, rel)
        if (not os.path.dirname(rel) and rel not in TOP_LEVEL_DOCS
                or not os.path.isfile(full)):
            continue
        with open(full, encoding="utf-8", errors="replace") as f:
            yield rel, f.read().splitlines()


def check_doc_refs(root):
    findings = []
    for doc, lines in iter_markdown(root):
        for lineno, line in enumerate(lines, start=1):
            for ref in DOC_REF_RE.findall(line):
                # `tools/smoke.sh build` names the script, not "build".
                if not _ref_resolves(root, ref.split()[0]):
                    findings.append(
                        (doc, lineno,
                         f"reference `{ref}` does not resolve to a "
                         "file or directory"))
    return findings


def check_doc_numbers(root):
    findings = []
    for doc, lines in iter_markdown(root):
        if doc in NUMBER_HOMES:
            continue
        for lineno, line in enumerate(lines, start=1):
            match = DOC_NUMBER_RE.search(line)
            if match:
                number = line[max(0, match.start() - 8):match.end()]
                findings.append(
                    (doc, lineno,
                     f"measured number '{number.strip()}' — it belongs in "
                     "CHANGES.md, ROADMAP.md or a BENCH_*.json; name a "
                     "tuned constant instead of quoting it"))
    return findings


def check_raw_posix_io(root):
    return grep_rule(
        root, RAW_POSIX_IO_RE,
        "raw ::read/::pread/::write/::send/::recv/::connect — route "
        "through grw::io (ReadSome/ReadAt/WriteAll/ConnectWithTimeout in "
        "util/posix_io.h) "
        "for EINTR retry, partial-write handling, timeouts, and fault "
        "injection",
        exclude=(POSIX_IO_IMPL,))


def check_raw_mmap(root):
    return grep_rule(
        root, RAW_MMAP_RE,
        "raw ::mmap/::munmap/::madvise/::mremap — map files through "
        "MappedFile (graph/mapped_file.h); allocate buffers on the heap",
        exclude=(MAPPED_FILE_IMPL,))


def check_adjacency_index_owner(root):
    exclude = tuple(rel for rel in iter_source_files(root)
                    if rel.startswith(INDEX_OWNER_DIR)) + INDEX_OWNERS
    return grep_rule(
        root, BUILD_INDEX_RE,
        "BuildAdjacencyIndex outside src/graph/ and the index's own "
        "test and benches; read by binary search",
        exclude=exclude)


def reference_rule(root, call_re, decl_re, message, exclude=()):
    """Calls matching call_re under REFERENCE_DIRS, minus declarations."""
    findings = []
    for rel in iter_source_files(root):
        if rel.split(os.sep)[0] not in REFERENCE_DIRS or rel in exclude:
            continue
        for lineno, line in enumerate(read_code_lines(root, rel), start=1):
            if call_re.search(line) and not decl_re.search(line):
                findings.append((rel, lineno, message))
    return findings


def check_canonical_mask_reference(root):
    return reference_rule(
        root, CANONICAL_MASK_RE, CANONICAL_MASK_DECL_RE,
        "CanonicalMask call outside tests/ and bench/ — classify through "
        "GraphletClassifier's table")


def check_checksum_reference(root):
    return reference_rule(
        root, FNV_BYTEWISE_RE, FNV_BYTEWISE_DECL_RE,
        "Fnv1aBytewise call outside Fnv1a's dispatch, tests/ and bench/ "
        "— checksum through snapshot::Fnv1a",
        exclude=(FNV_DISPATCH,))


def _call_arguments(text, open_paren):
    """Top-level arguments of the call whose '(' is at open_paren."""
    args, depth, start = [], 0, open_paren + 1
    for i in range(open_paren, len(text)):
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                args.append(text[start:i])
                return [a.strip() for a in args]
        elif c == "," and depth == 1:
            args.append(text[start:i])
            start = i + 1
    return [a.strip() for a in args]


def check_engine_pool_share(root):
    findings = []
    for rel in iter_source_files(root):
        if not rel.startswith(ENGINE_DIR):
            continue
        text = "\n".join(read_code_lines(root, rel))
        for match in FOR_EACH_RE.finditer(text):
            args = _call_arguments(text, match.end() - 1)
            if len(args) >= 3 and not UNSHARED_CAP_RE.match(args[-1]):
                continue
            lineno = text.count("\n", 0, match.start()) + 1
            findings.append((
                rel, lineno,
                "engine ForEach capped by the caller's threads (or not at "
                "all) — cap it with the run's ChainPool::Share"))
    return findings


ALL_CHECKS = [
    ("raw-sync", check_raw_sync),
    ("detach", check_detach),
    ("naked-new-array", check_naked_new_array),
    ("unchecked-cast", check_unchecked_cast),
    ("tests-registered", check_tests_registered),
    ("bench-json", check_bench_json),
    ("doc-refs", check_doc_refs),
    ("doc-numbers", check_doc_numbers),
    ("raw-posix-io", check_raw_posix_io),
    ("raw-mmap", check_raw_mmap),
    ("adjacency-index-owner", check_adjacency_index_owner),
    ("canonical-mask-reference", check_canonical_mask_reference),
    ("checksum-reference", check_checksum_reference),
    ("engine-pool-share", check_engine_pool_share),
]


def run_checks(root):
    findings = []
    for name, check in ALL_CHECKS:
        for rel, lineno, message in check(root):
            findings.append(f"{rel}:{lineno}: [{name}] {message}")
    return findings


# ------------------------------------------------------------ self-test --

def _write(root, rel, content):
    full = os.path.join(root, rel)
    os.makedirs(os.path.dirname(full), exist_ok=True)
    with open(full, "w", encoding="utf-8") as f:
        f.write(content)


def _make_clean_tree(root):
    _write(root, SYNC_HEADER, "// the one legitimate home\nstd::mutex mu;\n")
    _write(root, POSIX_IO_IMPL,
           "// the one legitimate home for raw syscalls\n"
           "ssize_t n = ::read(fd, buf, cap);\n")
    _write(root, MAPPED_FILE_IMPL,
           "// the one legitimate home for mappings\n"
           "void* p = ::mmap(nullptr, n, PROT_READ, MAP_PRIVATE, fd, 0);\n")
    _write(root, "src/a.cpp",
           "// comment mentioning std::mutex and static_cast<int>(f.GetInt(\n"
           "int x = f.GetInt32(\"n\", 1);\n")
    _write(root, "tests/a_test.cpp", "TEST(A, B) {}\n")
    _write(root, "bench/bench_a.cpp",
           "int main() { grw::bench::MaybeWriteJson(flags, \"a\", c, m); }\n")
    _write(root, "bench/bench_micro_b.cpp",
           "#include <benchmark/benchmark.h>\n")
    _write(root, "tools/t.cpp", "int main() {}\n")
    _write(root, "examples/e.cpp", "int main() {}\n")
    _write(root, "CHANGES.md",
           "- touched `src/a.cpp` and `src/x.{h,cpp}` and `tools/t`\n")
    _write(root, "src/x.h", "\n")
    _write(root, "src/x.cpp", "\n")
    _write(root, "ROADMAP.md", "see `tests/a_test.cpp`; ran at 3.2x\n")
    _write(root, "src/graph/README.md",
           "# graph/\n\n* `src/x.h` - a 64-byte header; run "
           "`tools/t.cpp --check-identical`\n")
    _write(root, "bench/README.md", "* `bench/bench_a.cpp` - 4.2 ms, 97%\n")
    _write(root, "PAPER.md", "Ran 2.9x faster than `src/their_code.cpp`.\n")
    _write(root, "src/graph/source.cpp", "g.BuildAdjacencyIndex();\n")
    _write(root, "src/graphlet/catalog.h",
           "uint32_t CanonicalMask(uint32_t mask, int k, int* p = nullptr);\n")
    _write(root, "src/graphlet/catalog.cpp",
           "uint32_t CanonicalMask(uint32_t mask, int k, int* p) {}\n")
    _write(root, "tests/catalog_test.cpp",
           "TEST(C, M) { EXPECT_EQ(CanonicalMask(m, 4), c); }\n")
    _write(root, "bench/bench_micro_c.cpp",
           "#include <benchmark/benchmark.h>\n"
           "void B() { grw::CanonicalMask(m, k); }\n")
    _write(root, "src/graph/format.h",
           "uint64_t Fnv1aBytewise(const void* data, size_t bytes,\n")
    _write(root, FNV_DISPATCH,
           "uint64_t Fnv1aBytewise(const void* data, size_t bytes, "
           "uint64_t seed) {}\n"
           "return Fnv1aBytewise(p + done, bytes - done, seed);\n")
    _write(root, "tests/format_test.cpp",
           "TEST(C, K) { EXPECT_EQ(snapshot::Fnv1aBytewise(d, n), h); }\n")
    _write(root, "src/engine/engine.cpp",
           "const ChainPool::Share share(pool);\n"
           "pool.ForEach(\n    n, [&](size_t c) { f(c, g(1, 2)); },\n"
           "    share.Threads(opt.threads));\n")
    _write(root, "bench/bench_loader.cpp",
           "int main() { snapshot::Fnv1aBytewise(d, n);\n"
           "grw::bench::MaybeWriteJson(flags, \"a\", c, m); }\n")


def self_test():
    failures = []

    def expect(condition, label):
        print(f"  {'ok' if condition else 'FAIL'}: {label}")
        if not condition:
            failures.append(label)

    with tempfile.TemporaryDirectory() as root:
        _make_clean_tree(root)
        clean = run_checks(root)
        expect(clean == [], "clean tree produces no findings")

        seeds = [
            ("raw-sync", "src/bad_sync.cpp", "std::mutex naked;\n"),
            ("detach", "src/bad_detach.cpp", "worker.detach();\n"),
            ("naked-new-array", "src/bad_new.cpp", "int* p = new int[n];\n"),
            ("unchecked-cast", "src/bad_cast.cpp",
             "int n = static_cast<int>(flags.GetInt(\"n\", 1));\n"),
            ("tests-registered", "tests/empty_test.cpp",
             "// no test macros here\n"),
            ("bench-json", "bench/bench_nojson.cpp", "int main() {}\n"),
            ("doc-refs", "CHANGES.md",
             "- see `src/ghost_file.cpp` for details\n"),
            ("doc-refs", "src/walk/README.md",
             "* **ghost.h** - read `src/walk/ghost.h` first\n"),
            ("doc-numbers", "src/walk/README.md",
             "The d = 3 walk runs at 3.2x the enumerator's speed.\n"),
            ("doc-numbers", "tools/README.md",
             "A verified open takes 4.2 ms, 12 MiB.\n"),
            ("raw-posix-io", "src/bad_io.cpp",
             "ssize_t n = ::write(fd, data, len);\n"),
            ("raw-mmap", "src/graph/bad_cache.cpp",
             "void* p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE, "
             "MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);\n"),
            ("adjacency-index-owner", "tools/bad_index.cpp",
             "g.BuildAdjacencyIndex();\n"),
            ("adjacency-index-owner", "src/exact/esu.cpp",
             "g.BuildAdjacencyIndex();\n"),
            ("canonical-mask-reference", "src/graphlet/bad_classify.cpp",
             "const uint32_t canon = CanonicalMask(mask, k, perm);\n"),
            ("checksum-reference", "src/graph/bad_verify.cpp",
             "if (snapshot::Fnv1aBytewise(p, n) != want) return false;\n"),
            ("checksum-reference", "tools/bad_info.cpp",
             "const uint64_t h = grw::snapshot::Fnv1aBytewise(p, n);\n"),
            ("engine-pool-share", "src/engine/bad_round.cpp",
             "pool.ForEach(\n    blocks, [&](size_t b) { Step(b, 2); },\n"
             "    opt.threads);\n"),
            ("engine-pool-share", "src/engine/bad_build.cpp",
             "pool.ForEach(n, [&](size_t c) { Build(c); }, "
             "options.threads);\n"),
            ("engine-pool-share", "src/engine/bad_uncapped.cpp",
             "pool.ForEach(n, [&](size_t c) { Build(c); });\n"),
        ]
        for rule, rel, content in seeds:
            with tempfile.TemporaryDirectory() as seeded:
                _make_clean_tree(seeded)
                _write(seeded, rel, content)
                findings = run_checks(seeded)
                hit = any(f"[{rule}]" in f and rel in f for f in findings)
                expect(hit, f"seeded {rel} trips [{rule}]")
                others = [f for f in findings if f"[{rule}]" not in f]
                expect(others == [], f"[{rule}] seed trips nothing else")

    if failures:
        print(f"self-test: {len(failures)} FAILED")
        return 1
    print("self-test: all rules detect their seeded violations")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root",
                        default=os.path.dirname(
                            os.path.dirname(os.path.abspath(__file__))),
                        help="repo root to lint (default: this script's repo)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule detects a seeded violation")
    parser.add_argument("--list", action="store_true",
                        help="list the checks and exit")
    args = parser.parse_args()

    if args.list:
        print(__doc__.split("\n\n", 2)[2].split("Usage:")[0].rstrip())
        return 0
    if args.self_test:
        return self_test()

    findings = run_checks(args.root)
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)")
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())

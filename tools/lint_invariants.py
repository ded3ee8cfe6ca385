#!/usr/bin/env python3
"""Repo-invariant linter: greppable project rules, enforced in CI.

Checks (each is a function named check_*; `--list` prints them):

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
  doc-refs          backtick-quoted repo paths in CHANGES.md / ROADMAP.md
                    (src/, tests/, bench/, tools/, docs/, examples/
                    prefixes) must resolve — stale references rot fast.
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

Usage:
  tools/lint_invariants.py [--root DIR]   lint the tree (exit 1 on findings)
  tools/lint_invariants.py --self-test    seed each violation in a scratch
                                          tree and assert it is detected
"""

import argparse
import os
import re
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
RAW_POSIX_IO_RE = re.compile(r"::(?:p?read|write|send|recv|connect)\s*\(")
RAW_MMAP_RE = re.compile(r"::(?:mmap|munmap|madvise|mremap)\s*\(")
BUILD_INDEX_RE = re.compile(r"\bBuildAdjacencyIndex\s*\(")
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


def check_doc_refs(root):
    findings = []
    for doc in ("CHANGES.md", "ROADMAP.md"):
        doc_path = os.path.join(root, doc)
        if not os.path.exists(doc_path):
            continue
        with open(doc_path, encoding="utf-8", errors="replace") as f:
            for lineno, line in enumerate(f, start=1):
                for ref in DOC_REF_RE.findall(line):
                    if not _ref_resolves(root, ref):
                        findings.append(
                            (doc, lineno,
                             f"reference `{ref}` does not resolve to a "
                             "file or directory"))
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


ALL_CHECKS = [
    ("raw-sync", check_raw_sync),
    ("detach", check_detach),
    ("naked-new-array", check_naked_new_array),
    ("unchecked-cast", check_unchecked_cast),
    ("tests-registered", check_tests_registered),
    ("bench-json", check_bench_json),
    ("doc-refs", check_doc_refs),
    ("raw-posix-io", check_raw_posix_io),
    ("raw-mmap", check_raw_mmap),
    ("adjacency-index-owner", check_adjacency_index_owner),
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
    _write(root, "ROADMAP.md", "see `tests/a_test.cpp`\n")
    _write(root, "src/graph/source.cpp", "g.BuildAdjacencyIndex();\n")


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
            ("raw-posix-io", "src/bad_io.cpp",
             "ssize_t n = ::write(fd, data, len);\n"),
            ("raw-mmap", "src/graph/bad_cache.cpp",
             "void* p = ::mmap(nullptr, n, PROT_READ | PROT_WRITE, "
             "MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);\n"),
            ("adjacency-index-owner", "tools/bad_index.cpp",
             "g.BuildAdjacencyIndex();\n"),
            ("adjacency-index-owner", "src/exact/esu.cpp",
             "g.BuildAdjacencyIndex();\n"),
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
                        help="list check names and exit")
    args = parser.parse_args()

    if args.list:
        for name, _ in ALL_CHECKS:
            print(name)
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

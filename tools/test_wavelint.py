#!/usr/bin/env python3
"""Self-test for tools/wavelint.py's snap and det passes.

(The shard pass keeps its own self-test in tools/test_shardlint.py.)

Two layers of mutation testing:

1. Fixture mutations: a miniature repository is written to a temp
   directory and mutated one contract at a time -- a serialization call
   dropped from snap() must flag the member; a [snap: skip] or
   [det: local] tag stripped of its justification must flag; a derived
   class losing its tag must flag; a declared-but-undefined snap() must
   fail loudly (exit 2); an unknown --pass must exit 2.

2. Real-tree mutations: the repository's own src/ is copied and every
   single [snap: skip] and [det: local] escape is removed one at a time
   -- each removal must turn the corresponding pass red (exit 1). This
   proves no escape in the tree is redundant dead weight: every tag is
   the only thing standing between a real hazard/skip and the lint.
   Likewise the canonical CI mutation (deleting a field from
   Network::snap()) must be caught with the member named, and the shard
   pass must flag Fabric::step_nodes reading the outbox of the cycle it
   is staging (the outbox rule's fixtures live in test_shardlint.py). These legs
   run concurrently (up to 4 workers), each worker on its own copy of
   src/.

Finally wavelint (all passes) must pass against the real repository.

Run directly (``python3 tools/test_wavelint.py``) or via ctest
(``wavelint_self_test``). Exit 0 = all checks pass.
"""

import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
REPO = TOOLS.parent
WAVELINT = TOOLS / "wavelint.py"

THING_HPP = """
namespace wavesim::core {
class Thing {
 public:
  void snap(snap::Archive& ar);
  std::vector<int> sorted_keys() const;
 private:
  const topo::Grid& topo_;
  int count_ = 0;
  int cursor_ = 0;
  int patience_;  // [snap: skip] config, fixed at construction
  std::unordered_map<int, int> table_;
};
class DerivedThing : public Thing {
 private:
  int bits_;  // [snap: skip] derived from topology at construction
};
}  // namespace wavesim::core
"""

THING_CPP = """
#include "core/thing.hpp"
namespace wavesim::core {
std::vector<int> Thing::sorted_keys() const {
  std::vector<int> out;
  // [det: local] collect-then-sort; bucket order never escapes.
  for (const auto& [k, v] : table_) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}
void Thing::snap(snap::Archive& ar) {
  ar.pod(count_);
  ar.pod(cursor_);
  std::vector<int> keys = sorted_keys();
  ar.vec_pod(keys);
}
}  // namespace wavesim::core
"""


def write_fixture(root, hpp=THING_HPP, cpp=THING_CPP):
    for rel, text in (("src/core/thing.hpp", hpp),
                      ("src/core/thing.cpp", cpp)):
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def run_lint(root, *passes):
    cmd = [sys.executable, str(WAVELINT), "--root", str(root)]
    for p in passes:
        cmd += ["--pass", p]
    return subprocess.run(cmd, capture_output=True, text=True)


def check(name, ok, detail):
    print(f"{'ok' if ok else 'FAIL'}: {name}")
    if not ok:
        print(detail)
    return ok


def fixture_checks(results):
    with tempfile.TemporaryDirectory(prefix="wavelint-fixture-") as tmp:
        root = Path(tmp)

        write_fixture(root)
        r = run_lint(root, "snap", "det")
        results.append(check("clean fixture passes", r.returncode == 0,
                             r.stdout + r.stderr))

        # Tentpole contract: a field dropped from snap() is flagged by
        # name. table_ stays covered through the sorted_keys() closure.
        write_fixture(root, cpp=THING_CPP.replace(
            "  ar.pod(cursor_);\n", ""))
        r = run_lint(root, "snap")
        results.append(check(
            "dropped snap() field is flagged by name",
            r.returncode == 1 and "Thing::cursor_" in r.stdout,
            r.stdout + r.stderr))
        results.append(check(
            "closure-covered unordered member is not flagged",
            "Thing::table_" not in r.stdout, r.stdout))

        # A [snap: skip] without a justification is itself a violation.
        write_fixture(root, hpp=THING_HPP.replace(
            "[snap: skip] config, fixed at construction", "[snap: skip]"))
        r = run_lint(root, "snap")
        results.append(check(
            "[snap: skip] without justification is flagged",
            r.returncode == 1 and "justification" in r.stdout
            and "patience_" in r.stdout,
            r.stdout + r.stderr))

        # A derived class inherits snap() that cannot see its members.
        write_fixture(root, hpp=THING_HPP.replace(
            "  int bits_;  // [snap: skip] derived from topology at "
            "construction", "  int bits_;"))
        r = run_lint(root, "snap")
        results.append(check(
            "derived-class member without tag is flagged",
            r.returncode == 1 and "DerivedThing::bits_" in r.stdout,
            r.stdout + r.stderr))

        # Declared snap() with no findable definition: fail loudly.
        write_fixture(root, cpp="// definition moved away\n")
        r = run_lint(root, "snap")
        results.append(check(
            "declared-but-undefined snap() exits 2",
            r.returncode == 2, r.stdout + r.stderr))

        # det: removing the escape tag flags the iteration by name.
        write_fixture(root, cpp=THING_CPP.replace(
            "  // [det: local] collect-then-sort; bucket order never "
            "escapes.\n", ""))
        r = run_lint(root, "det")
        results.append(check(
            "untagged unordered iteration is flagged by name",
            r.returncode == 1 and "table_" in r.stdout,
            r.stdout + r.stderr))

        # det: a [det: local] stripped of its justification is flagged.
        write_fixture(root, cpp=THING_CPP.replace(
            "[det: local] collect-then-sort; bucket order never escapes.",
            "[det: local]"))
        r = run_lint(root, "det")
        results.append(check(
            "[det: local] without justification is flagged",
            r.returncode == 1 and "justification" in r.stdout,
            r.stdout + r.stderr))

        # det: wall-clock and libc randomness are flagged untagged.
        write_fixture(root, cpp=THING_CPP.replace(
            "  ar.pod(count_);",
            "  ar.pod(count_);\n"
            "  auto t0 = std::chrono::steady_clock::now();\n"
            "  int r = std::rand();"))
        r = run_lint(root, "det")
        results.append(check(
            "wall clock and std::rand are flagged",
            r.returncode == 1 and "wall clock" in r.stdout
            and "randomness" in r.stdout,
            r.stdout + r.stderr))

    # Usage errors exit 2 (argparse) -- the 0/1/2 contract's third leg.
    r = subprocess.run([sys.executable, str(WAVELINT), "--pass", "bogus"],
                       capture_output=True, text=True)
    results.append(check("unknown --pass exits 2", r.returncode == 2,
                         r.stdout + r.stderr))


def real_tree_checks(results):
    """Each leg lints a worker's own copy of src/ with one file rewritten,
    then restores the file; the legs run concurrently."""
    tag_res = {"snap": re.compile(r"\[snap:\s*skip\]"),
               "det": re.compile(r"\[det:\s*local\]")}
    workers = max(1, min(4, os.cpu_count() or 1))
    with tempfile.TemporaryDirectory(prefix="wavelint-mutate-") as tmp:
        free = queue.Queue()
        for k in range(workers):
            root = Path(tmp) / f"w{k}"
            shutil.copytree(REPO / "src", root / "src")
            free.put(root)

        def lint_mutant(leg):
            """leg = (relative path, edit, pass): lint with the edit applied."""
            rel, edit, pass_name = leg
            root = free.get()
            path = root / rel
            original = path.read_text()
            try:
                path.write_text(edit(original))
                return run_lint(root, pass_name)
            finally:
                path.write_text(original)
                free.put(root)

        # The canonical CI mutation: drop a field from Network::snap().
        net = "src/core/network.cpp"
        drop = "  ar.pod(delivered_msgs_);\n"
        canonical = drop in (REPO / net).read_text()
        if not canonical:
            results.append(check(
                "Network::snap() serializes delivered_msgs_", False,
                "expected 'ar.pod(delivered_msgs_);' in network.cpp"))
        legs = [(net, lambda text: text.replace(drop, ""), "snap")] \
            if canonical else []

        # The outbox rule on the real fabric: the shard-phase drain reading
        # the outbox of the cycle still being staged must be flagged.
        fab = "src/wormhole/fabric.cpp"
        drain = "transit_[(now - 1) & transit_mask_]"
        outbox = drain in (REPO / fab).read_text()
        if not outbox:
            results.append(check(
                "Fabric::step_nodes drains transit_ at now - 1", False,
                "expected '%s' in fabric.cpp" % drain))
        if outbox:
            legs.append((fab, lambda text: text.replace(
                drain, "transit_[now & transit_mask_]"), "shard"))

        # Every escape in the tree must be load-bearing: removing any
        # one [snap: skip] or [det: local] tag turns its pass red.
        sites = {name: [] for name in tag_res}
        for pass_name, tag_re in tag_res.items():
            for path in sorted((REPO / "src").rglob("*")):
                if path.suffix not in (".hpp", ".cpp"):
                    continue
                for i, line in enumerate(path.read_text().split("\n")):
                    if tag_re.search(line):
                        sites[pass_name].append((path.relative_to(REPO), i))

        def strip_tag(tag_re, i):
            def edit(text):
                lines = text.split("\n")
                lines[i] = tag_re.sub("", lines[i])
                return "\n".join(lines)
            return edit

        for pass_name, tag_re in tag_res.items():
            legs += [(rel, strip_tag(tag_re, i), pass_name)
                     for rel, i in sites[pass_name]]
        with ThreadPoolExecutor(workers) as pool:
            runs = list(pool.map(lint_mutant, legs))

        if canonical:
            r = runs.pop(0)
            results.append(check(
                "dropped Network::snap() field is caught by name",
                r.returncode == 1 and "delivered_msgs_" in r.stdout,
                r.stdout + r.stderr))
        if outbox:
            r = runs.pop(0)
            results.append(check(
                "same-cycle outbox read in Fabric::step_nodes is flagged",
                r.returncode == 1 and "Fabric::step_nodes reads" in r.stdout
                and "transit_[now & transit_mask_]" in r.stdout,
                r.stdout + r.stderr))
        for pass_name in tag_res:
            if not sites[pass_name]:
                results.append(check(
                    f"real tree has [{pass_name}] escapes to test", False,
                    "tag scan found none -- grammar drifted?"))
                continue
            failed = []
            for rel, i in sites[pass_name]:
                r = runs.pop(0)
                if r.returncode != 1:
                    failed.append("%s:%d: tag removal not flagged (rc=%d)"
                                  % (rel, i + 1, r.returncode))
            results.append(check(
                f"each of {len(sites[pass_name])} [{pass_name}] escapes is "
                "load-bearing", not failed, "\n".join(failed)))


def main():
    results, fixture_results = [], []
    with ThreadPoolExecutor(1) as side:
        # The fixture legs and the clean-tree lint touch no worker copy,
        # so they run beside the real-tree legs.
        clean = side.submit(
            lambda: (fixture_checks(fixture_results), run_lint(REPO))[1])
        real_tree_checks(results)
        r = clean.result()
    results += fixture_results
    results.append(check("real repository is clean (all passes)",
                         r.returncode == 0, r.stdout + r.stderr))

    if all(results):
        print(f"test_wavelint: {len(results)} checks passed")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""wavelint -- multi-pass static analysis for wavesim's two load-bearing
invariants: bit-identical determinism and snapshot completeness.

The repo enforces both invariants dynamically (digest sweeps over engines
x shards, `restore(snapshot(S))` equivalence in test_snap),
but a dynamic sweep can only catch a forgotten field whose effect falls
inside the tested window. wavelint closes that gap at lint time with
three passes sharing one parsing infrastructure (member tables,
annotation grammar, call-graph closure, fail-loudly-on-unparsable
exit 2):

* Pass `shard` -- the engine shard-safety conventions.
  Every `_`-suffixed member of the classes with a shard phase carries a
  `[shard: seq|owned|ro|outbox]` tag; the call graph is closed over from
  the shard-phase roots and a write to a seq/ro/outbox member inside the
  closure is a violation. An outbox member holds per-cycle outboxes:
  the owning shard's outbox is filed under cycle t when t commits, and
  receivers read it in t + 1 .. t + latency, so shard-phase code may
  only subscript it with an earlier cycle (`now - k`). See
  docs/ENGINE.md rule 1.

* Pass `snap` -- snapshot completeness (docs/SERVICE.md: wavesim.snap.v1
  captures "every mutable bit" of simulation state). For every class
  that implements `snap(snap::Archive&)` -- discovered by scanning every
  header under src/ -- each `_`-suffixed data member must either be
  referenced inside that class's snap() closure (the snap() body plus
  same-class methods it calls, so serialization accessors like
  CircuitTable::active_ids count via reachability, not suppression) or
  carry a `[snap: skip]` tag with a justification. Reference members are
  exempt by construction: they are non-owned wiring, re-established when
  the Simulation is rebuilt from the config section, and the owning side
  of the reference is itself under lint. Classes that *derive* from a
  snap-bearing base without overriding snap() (the TrafficPattern
  hierarchy) get the same member check: the inherited snap() cannot
  serialize members it has never heard of.

* Pass `det` -- determinism hazards in code reachable from the result-,
  digest-, and snapshot-producing roots. Every subsystem under src/
  feeds a versioned result schema (wavesim.*.v1), the snapshot byte
  stream, or a digest, so the reachable set is over-approximated as all
  of src/ -- sound, and the right trade for a regex-level analysis (a
  missed hazard is a silent nondeterminism; a flagged-but-harmless one
  costs a one-line justification). Flagged hazards:
    - iteration (range-for / .begin()) over std::unordered_map or
      std::unordered_set variables -- bucket order is not part of the
      determinism contract and must never leak into result, digest, or
      snapshot bytes;
    - wall-clock reads (steady_clock/system_clock::now, std::time,
      gettimeofday, ...);
    - std::rand / srand / std::random_device (all randomness must flow
      through the seeded sim::Rng);
    - pointer-keyed std::map / std::set (iteration order = allocation
      order, which ASLR and allocator state make nondeterministic).
  The escape is a `[det: local]` tag with a justification on the
  hazardous line (or the comment directly above) for provably
  order-insensitive uses: collect-then-sort, membership-only sets,
  wall-clock that only feeds reported timing measurements.

Annotation grammar (shared by all passes; docs/LINTS.md spells it out):
a tag is `[pass: value]` inside a comment on the declaration/hazard line
or the `//` comment line(s) directly above it. The `snap: skip` and
`det: local` escapes additionally require a justification: prose on the
tag's comment line beyond the tag itself. An escape without a
justification is a violation -- tools/test_wavelint.py mutation-tests
both directions (dropped serialization must flag; stripped justification
must flag) against fixtures and against every escape in the real tree.

The parsers are deliberately regex-based and conservative: they
understand the project's own style (one declaration per line, members
suffixed `_`, out-of-line definitions in the sibling .cpp) and fail
loudly (exit 2) on anything they cannot parse rather than guessing.
Writes smuggled through non-const references, type aliases hiding an
unordered container, and pointer comparisons inside custom comparators
are out of scope and belong to TSan / the digest sweeps, which CI runs
alongside this lint.

Exit codes: 0 clean, 1 violations found, 2 parse/usage error.
"""

import argparse
import re
import sys
from pathlib import Path

# =============================================================================
# Shared parsing infrastructure
# =============================================================================


def die(msg):
    """Fail loudly on anything unparsable: exit 2, distinct from the
    exit-1 violations channel, so CI cannot mistake a broken parse for
    a clean tree."""
    print(msg, file=sys.stderr)
    sys.exit(2)


def strip_comments(text):
    """Remove //, /* */ comments and string literals, preserving newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == "'" and 0 < i and text[i - 1].isalnum() \
                and i + 1 < n and text[i + 1].isalnum():
            out.append(c)  # digit separator (20'000), not a char literal
            i += 1
        elif c in "\"'":
            quote, j = c, i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def match_braces(text, start):
    """Index one past the brace block opened just before `start`."""
    depth, i = 1, start
    while i < len(text) and depth:
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return i


CLASS_RE = re.compile(r"\b(class|struct)\s+(\w+)(\s*final)?([^;{(]*)\{")


def scan_classes(text):
    """Yield (name, bases, body, body_line) for every top-level-ish class
    or struct definition in `text` (raw, comments intact). Nested classes
    are yielded too; their members are attributed to the inner class only
    because parse_member_decls skips lines below brace depth 0."""
    for m in CLASS_RE.finditer(text):
        head_tail = m.group(4)
        if "enum" in text[max(0, m.start() - 8):m.start()]:
            continue  # enum class
        end = match_braces(text, m.end())
        bases = []
        if head_tail.strip().startswith(":"):
            bases = re.findall(r"(?:public|protected|private)?\s*([\w:]+)",
                               head_tail.strip()[1:])
            bases = [b.split("::")[-1] for b in bases if b not in
                     ("public", "protected", "private")]
        yield (m.group(2), bases, text[m.end():end - 1],
               text[:m.end()].count("\n"))


def class_body(text, class_name, path):
    """The text between the braces of `class class_name { ... };`."""
    m = re.search(r"\b(?:class|struct)\s+%s\b[^;{(]*\{" % class_name, text)
    if not m:
        die("wavelint: cannot find class %s in %s" % (class_name, path))
    end = match_braces(text, m.end())
    return text[m.end():end - 1], text[:m.end()].count("\n")


MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?[\w:<>,*&\s]+?[\s&*]([A-Za-z]\w*_)\s*"
    r"(?:=[^;()]*|\{[^;]*\})?;")


def parse_member_decls(body):
    """[(name, line_index, is_reference)] for `_`-suffixed data members
    declared at brace depth 0 of a class body (nested-struct fields and
    locals of inline methods sit deeper and are skipped)."""
    lines = body.split("\n")
    decls = []
    depth = 0
    for idx, line in enumerate(lines):
        code = line.split("//")[0]
        at_declaration_depth = depth == 0
        depth += code.count("{") - code.count("}")
        m = MEMBER_RE.match(code)
        if not m or "(" in code or not at_declaration_depth:
            continue
        if re.match(r"\s*(static|constexpr)\b", code):
            continue  # class-wide constants are not instance state
        name = m.group(1)
        is_reference = bool(re.search(r"&\s*%s\s*(?:=|;|\{)" % name, code))
        decls.append((name, idx, is_reference))
    return decls


def find_tag(lines, idx, tag_re):
    """Search declaration/hazard line `idx`, then the comment line(s)
    directly above, for `tag_re`. Returns (line_text, match) or
    (None, None)."""
    m = tag_re.search(lines[idx])
    if m:
        return lines[idx], m
    back = idx - 1
    while back >= 0 and lines[back].lstrip().startswith(("//", "///")):
        m = tag_re.search(lines[back])
        if m:
            return lines[back], m
        back -= 1
    return None, None


def tag_justification(tag_line, tag_match):
    """Prose on the tag's comment line beyond the tag itself (the escape
    grammar requires a reason, so a tag cannot silence the lint without
    explaining itself). Returns the stripped justification text."""
    comment = tag_line
    m = re.search(r"//+!?<?", comment)
    if m:
        comment = comment[m.end():]
    comment = comment.replace(tag_match.group(0), " ")
    comment = re.sub(r"[^\w]+", " ", comment).strip()
    return comment if re.search(r"\w{2,}", comment) else ""


METHOD_DEF_RE = re.compile(
    r"^[\w:<>,*&\s~]*?\b(\w+)::(\w+)\s*\(([^;{]*)\)\s*(?:const)?\s*"
    r"(?:noexcept)?\s*\{", re.M)


def parse_methods(impl_text, class_name):
    """{method name: [(params, body, line)]} for out-of-line definitions
    of `class_name` in already comment-stripped `impl_text`."""
    methods = {}
    for m in METHOD_DEF_RE.finditer(impl_text):
        if m.group(1) != class_name:
            continue
        end = match_braces(impl_text, m.end())
        methods.setdefault(m.group(2), []).append(
            (m.group(3), impl_text[m.end():end - 1],
             impl_text[:m.start()].count("\n") + 1))
    return methods


INLINE_METHOD_RE = re.compile(
    r"(?:^|\n)[ \t]*[\w:<>,*&~\s]*?\b(\w+)\s*\(([^;{}]*)\)\s*"
    r"(?:const)?\s*(?:noexcept)?\s*(?:override)?\s*(?:final)?\s*"
    r"(?:->\s*[\w:<>&*\s]+?)?(?:\s*:\s*[^{;]*)?\{")


def parse_inline_methods(body_stripped):
    """{method name: [(params, body)]} for methods defined inline in a
    comment-stripped class body."""
    methods = {}
    for m in INLINE_METHOD_RE.finditer(body_stripped):
        end = match_braces(body_stripped, m.end())
        methods.setdefault(m.group(1), []).append(
            (m.group(2), body_stripped[m.end():end - 1]))
    return methods


# =============================================================================
# Pass `shard` -- engine shard-safety conventions (docs/ENGINE.md rule 1)
# =============================================================================

# (header, implementation, class name) triples under lint.
SHARD_TARGETS = [
    ("src/core/network.hpp", "src/core/network.cpp", "Network"),
    ("src/wormhole/fabric.hpp", "src/wormhole/fabric.cpp", "Fabric"),
    ("src/core/node_interface.hpp", "src/core/node_interface.cpp",
     "NodeInterface"),
]

# Arena/SoA containers holding state relocated out of the SHARD_TARGETS
# classes, and the views addressing slices of them (Router over the
# fabric's arrays); only their headers are read. Members must carry
# [shard:] tags (so a field moved into a container cannot silently lose
# its classification); there is no closure to walk -- their methods run
# in the caller's phase.
SHARD_HEADER_TARGETS = [
    ("src/sim/ring.hpp", "Ring"),
    ("src/wormhole/link_gate.hpp", "LinkGate"),
    ("src/wormhole/router.hpp", "Router"),
    ("src/pcs/registers.hpp", "RegisterFile"),
]

# Shard-phase entry points: (class, method). The closure starts here.
SHARD_ROOTS = [
    ("Network", "step_shard"),
    ("Fabric", "step_nodes"),
    ("NodeInterface", "pump_streams"),
]

# Member expression prefix -> class of the object it designates, for the
# cross-class calls that occur in shard-phase code.
CROSS_CLASS_CALLS = [
    (re.compile(r"\bfabric_\s*\.\s*(\w+)\s*\("), "Fabric"),
    (re.compile(r"\binterfaces_\s*\[[^]]*\]\s*(?:->|\.)\s*(\w+)\s*\("),
     "NodeInterface"),
]

SHARD_TAG_RE = re.compile(r"\[shard:\s*(seq|owned|ro|outbox)\]")
MUTATING_METHODS = (
    "push_back|emplace_back|pop_back|push_front|pop_front|push|pop|insert|"
    "erase|clear|resize|assign|emplace|reserve|swap|mark_delivered|"
    "set_\\w+|reset|emit|fork|advance|claim")


def parse_tagged_members(header_path, cls):
    """{member name: shard tag}; collects violations for missing tags."""
    text = header_path.read_text()
    body, first_line = class_body(text, cls, header_path)
    lines = body.split("\n")
    members, missing = {}, []
    for name, idx, _ in parse_member_decls(body):
        tag_line, tag = find_tag(lines, idx, SHARD_TAG_RE)
        if tag is None:
            missing.append("%s:%d: %s::%s has no [shard: seq|owned|ro|outbox] "
                           "tag" %
                           (header_path, first_line + idx + 2, cls, name))
        else:
            members[name] = tag.group(1)
    return members, missing


def shard_overloads(overloads):
    """Prefer the ShardIo-taking overload(s); all of them otherwise."""
    shard = [o for o in overloads
             if "ShardIo" in o[0] or "ShardContext" in o[0]]
    return shard or overloads


def shard_reachable_bodies(all_methods):
    """Closure of (class, method) from SHARD_ROOTS."""
    seen, queue, bodies = set(), list(SHARD_ROOTS), []
    while queue:
        cls, name = queue.pop(0)
        if (cls, name) in seen or name not in all_methods.get(cls, {}):
            continue
        seen.add((cls, name))
        for params, body, line in shard_overloads(all_methods[cls][name]):
            bodies.append((cls, name, body, line))
            for callee in re.findall(r"(?<![\w.>:])(\w+)\s*\(", body):
                if callee in all_methods.get(cls, {}):
                    queue.append((cls, callee))
            for pattern, target_cls in CROSS_CLASS_CALLS:
                for callee in pattern.findall(body):
                    queue.append((target_cls, callee))
    return bodies


def shard_write_violations(cls, method, body, start_line, members, impl_path):
    """Writes to seq/ro members inside one shard-reachable body."""
    found = []
    for name, tag in sorted(members.items()):
        if tag == "owned":
            continue
        patterns = [
            r"(?<![\w.])%s\s*(?:=(?!=)|\+=|-=|\*=|/=|%%=|\|=|&=|\^=|<<=|>>=)"
            % name,
            r"(?:\+\+|--)\s*%s\b" % name,
            r"(?<![\w.])%s\s*(?:\+\+|--)" % name,
            r"(?<![\w.])%s\s*(?:\.|->)\s*(?:%s)\s*\(" % (name,
                                                         MUTATING_METHODS),
        ]
        for pat in patterns:
            m = re.search(pat, body)
            if m:
                line = start_line + body.count("\n", 0, m.start())
                found.append(
                    "%s:%d: %s::%s writes [shard: %s] member %s during the "
                    "shard phase" % (impl_path, line, cls, method, tag, name))
                break
    return found


def outbox_violations(cls, method, body, start_line, members, impl_path):
    """Shard-phase uses of [shard: outbox] members other than a read of
    an earlier cycle. An outbox staged in cycle t is filed when t commits
    and read by receivers in t + 1 .. t + latency, so every use must be a
    read through a subscript whose index mentions `now - ...`; a
    subscript at `now` reads the cycle that is still being staged."""
    found = []
    for name, tag in sorted(members.items()):
        if tag != "outbox":
            continue
        for m in re.finditer(r"(?<![\w.])%s\b" % name, body):
            line = start_line + body.count("\n", 0, m.start())
            rest = body[m.end():]
            sub = re.match(r"\s*\[", rest)
            if not sub:
                found.append(
                    "%s:%d: %s::%s uses [shard: outbox] member %s outside a "
                    "cycle subscript during the shard phase"
                    % (impl_path, line, cls, method, name))
                continue
            depth, i = 1, sub.end()
            while i < len(rest) and depth:
                depth += {"[": 1, "]": -1}.get(rest[i], 0)
                i += 1
            index = rest[sub.end():i - 1]
            if re.match(r"(?:\s*(?:\.|->)\s*\w+)*\s*(?:(?:=(?!=)|\+=|-=|"
                        r"\|=|&=|\+\+|--)|(?:\.|->)\s*(?:%s)\s*\()"
                        % MUTATING_METHODS, rest[i:]):
                found.append(
                    "%s:%d: %s::%s writes [shard: outbox] member %s[%s] "
                    "during the shard phase; outboxes are filed by the "
                    "commit" % (impl_path, line, cls, method, name,
                                index.strip()))
            elif not re.search(r"\bnow\s*-", index):
                found.append(
                    "%s:%d: %s::%s reads [shard: outbox] member %s[%s] in "
                    "the cycle it is written; receivers read an outbox in a "
                    "later cycle (index now - k)"
                    % (impl_path, line, cls, method, name, index.strip()))
    return found


def run_shard_pass(root):
    errors, members_by_class, methods_by_class, impls = [], {}, {}, {}
    for header, impl, cls in SHARD_TARGETS:
        hpath, ipath = root / header, root / impl
        if not hpath.is_file() or not ipath.is_file():
            die("wavelint: missing %s or %s" % (hpath, ipath))
        members, missing = parse_tagged_members(hpath, cls)
        if not members and not missing:
            die("wavelint: parsed no members for %s -- parser broken?"
                     % cls)
        errors += missing
        members_by_class[cls] = members
        methods_by_class[cls] = parse_methods(
            strip_comments(ipath.read_text()), cls)
        impls[cls] = impl
        if not methods_by_class[cls]:
            die("wavelint: parsed no methods for %s -- parser broken?"
                     % cls)

    for header, cls in SHARD_HEADER_TARGETS:
        hpath = root / header
        if not hpath.is_file():
            die("wavelint: missing %s" % hpath)
        members, missing = parse_tagged_members(hpath, cls)
        if not members and not missing:
            die("wavelint: parsed no members for %s -- parser broken?"
                     % cls)
        errors += missing
        members_by_class[cls] = members

    for cls, name in SHARD_ROOTS:
        if name not in methods_by_class[cls]:
            die("wavelint: shard root %s::%s not found" % (cls, name))

    bodies = shard_reachable_bodies(methods_by_class)
    for cls, method, body, line in bodies:
        errors += shard_write_violations(cls, method, body, line,
                                         members_by_class[cls], impls[cls])
        errors += outbox_violations(cls, method, body, line,
                                    members_by_class[cls], impls[cls])
    tagged = sum(len(m) for m in members_by_class.values())
    return errors, ("%d tagged members, %d shard-reachable bodies"
                    % (tagged, len(bodies)))


# =============================================================================
# Pass `snap` -- snapshot completeness (wavesim.snap.v1, docs/SERVICE.md)
# =============================================================================

SNAP_TAG_RE = re.compile(r"\[snap:\s*skip\]")
SNAP_METHOD_RE = re.compile(r"\bsnap\s*\(\s*(?:wavesim::)?snap::Archive\s*&")
CALLEE_RE = re.compile(r"(?<![\w.>:])(\w+)\s*\(")


def src_headers(root):
    headers = sorted((root / "src").rglob("*.hpp"))
    if not headers:
        die("wavelint: no headers under %s/src -- wrong --root?"
                 % root)
    return headers


def snap_closure_text(cls, snap_bodies, inline_methods, impl_methods):
    """Concatenated bodies of snap() plus every same-class method
    transitively called from it (serialization accessors count as
    references via reachability, mirroring the shard pass's closure)."""
    texts, seen, queue = [], set(), list(snap_bodies)
    while queue:
        body = queue.pop(0)
        texts.append(body)
        for callee in CALLEE_RE.findall(body):
            if callee in seen or callee == "snap":
                continue
            seen.add(callee)
            for params, cbody in inline_methods.get(callee, []):
                queue.append(cbody)
            for params, cbody, line in impl_methods.get(callee, []):
                queue.append(cbody)
    return "\n".join(texts)


def check_snap_members(header, cls, body, first_line, closure, errors,
                       inherited_from=None):
    """Shared member walk: each non-reference `_` member must be
    referenced in `closure` (None for derived classes whose base snap()
    cannot reference them) or carry a justified [snap: skip] tag."""
    lines = body.split("\n")
    checked = 0
    for name, idx, is_reference in parse_member_decls(body):
        if is_reference:
            continue  # non-owned wiring, re-established by construction
        checked += 1
        if closure is not None and re.search(r"\b%s\b" % name, closure):
            continue
        tag_line, tag = find_tag(lines, idx, SNAP_TAG_RE)
        where = "%s:%d" % (header, first_line + idx + 2)
        if tag is None:
            if inherited_from:
                errors.append(
                    "%s: %s::%s is not serialized -- %s inherits snap() "
                    "from %s, which cannot reference it; override snap() "
                    "or tag the member [snap: skip] with a justification"
                    % (where, cls, name, cls, inherited_from))
            else:
                errors.append(
                    "%s: %s::%s is not referenced in %s::snap() and has "
                    "no [snap: skip] tag -- serialize it or justify the "
                    "skip" % (where, cls, name, cls))
        elif not tag_justification(tag_line, tag):
            errors.append(
                "%s: %s::%s has a [snap: skip] tag without a "
                "justification -- say why the member is not snapshot "
                "state" % (where, cls, name))
    return checked


def run_snap_pass(root):
    errors = []
    # First sweep: discover every snap-bearing class across all headers.
    all_classes = []  # (header, name, bases, body, first_line)
    for header in src_headers(root):
        text = header.read_text()
        for name, bases, body, first_line in scan_classes(text):
            all_classes.append((header, name, bases, body, first_line))
    snap_classes = {name for _, name, _, body, _ in all_classes
                    if SNAP_METHOD_RE.search(body)}
    if not snap_classes:
        die("wavelint: discovered no snap(snap::Archive&) classes -- "
                 "parser broken?")

    classes_checked = members_checked = 0
    for header, cls, bases, body, first_line in all_classes:
        if cls in ("Archive", "Snapshot"):
            continue  # the serialization substrate itself, not model state
        declares = SNAP_METHOD_RE.search(body) is not None
        inherited = next((b for b in bases if b in snap_classes), None)
        if not declares and inherited is None:
            continue
        body_stripped = strip_comments(body)
        inline_methods = parse_inline_methods(body_stripped)
        closure = None
        if declares:
            snap_bodies = [b for p, b in inline_methods.get("snap", [])
                           if "Archive" in p]
            impl_methods = {}
            impl = header.with_suffix(".cpp")
            if impl.is_file():
                impl_methods = parse_methods(
                    strip_comments(impl.read_text()), cls)
            snap_bodies += [b for p, b, _ in impl_methods.get("snap", [])]
            if not snap_bodies:
                die(
                    "wavelint: %s declares snap(snap::Archive&) but no "
                    "definition was found inline or in %s -- parser or "
                    "layout broken?" % (cls, impl))
            closure = snap_closure_text(cls, snap_bodies, inline_methods,
                                        impl_methods)
        classes_checked += 1
        members_checked += check_snap_members(
            header, cls, body, first_line, closure, errors,
            inherited_from=None if declares else inherited)
    return errors, ("%d snap classes, %d members checked"
                    % (classes_checked, members_checked))


# =============================================================================
# Pass `det` -- determinism hazards (docs/ENGINE.md determinism rules)
# =============================================================================

DET_TAG_RE = re.compile(r"\[det:\s*local\]")
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set)\s*<.*>\s*&?\s*(\w+)\s*(?:[;={(]|$)")
# Wall-clock sources. sim code is full of `now()` cycle accessors, so
# only the std clock types and the libc entry points match.
WALLCLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b"
    r"|\bstd::time\s*\(|(?<![\w.:])gettimeofday\s*\("
    r"|\bclock_gettime\s*\(|(?<![\w.:])(?:localtime|gmtime|strftime)\s*\(")
RAND_RE = re.compile(
    r"\bstd::s?rand\s*\(|(?<![\w.:])s?rand\s*\(|\brandom_device\b")
PTR_KEY_RE = re.compile(r"\bstd::(?:map|set)\s*<[^,>]*\*")


def det_files(root):
    files = sorted(p for p in (root / "src").rglob("*")
                   if p.suffix in (".hpp", ".cpp"))
    if not files:
        die("wavelint: no sources under %s/src -- wrong --root?" % root)
    return files


def unordered_names(text):
    """Names of unordered_map/set variables (members or locals) declared
    in `text`. Declarations are single-line in this codebase; a wrapped
    declaration would hide the name, so hazard sites also match plain
    `.begin()` calls on any discovered name from the paired header."""
    names = set()
    for line in strip_comments(text).split("\n"):
        m = UNORDERED_DECL_RE.search(line)
        if m:
            names.add(m.group(1))
    return names


def det_hazards(path, text, extra_unordered):
    """[(line_index, description)] for one file."""
    names = unordered_names(text) | extra_unordered
    hazards = []
    stripped = strip_comments(text).split("\n")
    iter_res = [
        (name,
         re.compile(r"for\s*\([^;]*:\s*(?:this->)?%s\b" % name),
         re.compile(r"\b%s\s*\.\s*c?r?begin\s*\(" % name))
        for name in sorted(names)
    ]
    for idx, code in enumerate(stripped):
        for name, range_re, begin_re in iter_res:
            if range_re.search(code) or begin_re.search(code):
                hazards.append(
                    (idx, "iterates unordered container '%s' (bucket order "
                     "must never reach results, digests, or snapshots)"
                     % name))
        if WALLCLOCK_RE.search(code):
            hazards.append((idx, "reads the wall clock (results must be a "
                            "pure function of config + seed)"))
        if RAND_RE.search(code):
            hazards.append((idx, "uses unseeded libc randomness (use the "
                            "seeded sim::Rng)"))
        if PTR_KEY_RE.search(code):
            hazards.append((idx, "declares a pointer-keyed ordered "
                            "container (iteration order = allocation "
                            "order)"))
    return hazards


def run_det_pass(root):
    errors = []
    files = det_files(root)
    header_unordered = {p: unordered_names(p.read_text())
                        for p in files if p.suffix == ".hpp"}
    hazards_found = escapes = 0
    for path in files:
        text = path.read_text()
        extra = set()
        if path.suffix == ".cpp":
            extra = header_unordered.get(path.with_suffix(".hpp"), set())
        lines = text.split("\n")
        for idx, what in det_hazards(path, text, extra):
            hazards_found += 1
            tag_line, tag = find_tag(lines, idx, DET_TAG_RE)
            where = "%s:%d" % (path.relative_to(root), idx + 1)
            if tag is None:
                errors.append(
                    "%s: %s -- prove it order-insensitive and tag "
                    "[det: local] with a justification, or fix it" %
                    (where, what))
            elif not tag_justification(tag_line, tag):
                errors.append(
                    "%s: [det: local] tag without a justification -- say "
                    "why the use is order-insensitive" % where)
            else:
                escapes += 1
    return errors, ("%d files scanned, %d hazards (%d justified escapes)"
                    % (len(files), hazards_found, escapes))


# =============================================================================
# Driver
# =============================================================================

PASSES = [
    ("shard", run_shard_pass),
    ("snap", run_snap_pass),
    ("det", run_det_pass),
]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="exit codes: 0 clean, 1 violations, 2 parse/usage error")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--pass", dest="passes", action="append",
                        choices=[name for name, _ in PASSES] + ["all"],
                        help="pass to run (repeatable; default: all)")
    args = parser.parse_args(argv)
    root = Path(args.root)
    selected = args.passes or ["all"]
    if "all" in selected:
        selected = [name for name, _ in PASSES]

    any_errors = False
    for name, runner in PASSES:
        if name not in selected:
            continue
        errors, summary = runner(root)
        if errors:
            any_errors = True
            print("\n".join(sorted(errors)))
            print("wavelint[%s]: %d violation(s)" % (name, len(errors)))
        else:
            print("wavelint[%s]: clean (%s)" % (name, summary))
    return 1 if any_errors else 0


if __name__ == "__main__":
    sys.exit(main())

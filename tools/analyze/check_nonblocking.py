"""Non-blocking-context checker.

Functions annotated `AFS_NONBLOCKING` (src/common/thread_annotations.hpp)
are the dispatcher/rendezvous paths the event-loop refactor must be able
to multiplex: they may take short in-process locks and timeout-bounded
waits, but must never reach a primitive that can park the thread
indefinitely on a peer.  This check builds a call graph from every
annotated function and reports the first blocking primitive reachable on
each path.

Blocking policy (the lists below are the policy — edit them deliberately):

* unbounded primitives: raw POSIX transfer/wait syscalls (`read`, `write`,
  `poll` & friends, `waitpid` without WNOHANG, `accept`, `connect`,
  `recv*`/`send*`, `sleep*`), `CondVar::Wait`, `std::condition_variable`
  waits, thread `join`, cross-process `NamedMutex` acquisition (including
  the RAII `NamedMutexGuard`), and `ipc::ReadFrame(pipe)` — called
  without its deadline argument.
* bounded (traversal cuts): `CondVar::WaitUntil`, `PipeEnd::WaitReadable`,
  `PipeEnd::WaitWritable`, `PipeEnd::Poll`, `TryLock`,
  `waitpid(..., WNOHANG)`, the transfer functions called with their
  deadline argument — `ipc::ReadFrame(pipe, timeout)`,
  `ipc::WriteFrame(pipe, payload, timeout)`, `PipeEnd::WriteAll(bytes,
  timeout)`, `PipeEnd::ReadExact(out, timeout)` — anything that converts
  a wedged peer into a `kTimeout`/`kBusy` the caller must handle.  Each
  transfer function is a single function whose timeout defaults to "wait
  forever", so the argument count is what tells the two calls apart.
* an unset deadline is unbounded: a call that leaves a `timeout`
  parameter at its default makes that parameter "unset" inside the
  callee, and a call there that hands an unset deadline on is no cut —
  `ipc::WriteFrame(pipe, payload)` reaches `writev` through
  `pipe.WriteAll(bytes, timeout)`.
* `afs::Mutex::Lock` / `MutexLock` are allowed: in-process critical
  sections are short by construction (the lock-order checker and TSan keep
  them honest); what kills an event loop is waiting on a *peer* while
  holding the loop.

Precision notes: calls are resolved through the tokenizer model
(tools/analyze/engine.py).  Method calls resolve by receiver type where
the model can see it and fall back to every same-named definition
otherwise, so the check over-approximates; suppress deliberate findings
with `// afs-lint: allow(nonblocking: reason)` at the *annotated
function's* definition line, or baseline them with a note.
"""

from __future__ import annotations

from collections import deque

ANNOTATION = "AFS_NONBLOCKING"
CHECK = "nonblocking"

# Free-function / syscall names that park the caller indefinitely.
BLOCKING_FREE = {
    "read", "pread", "readv", "preadv",
    "write", "pwrite", "writev", "pwritev",
    "poll", "ppoll", "select", "pselect",
    "recv", "recvfrom", "recvmsg", "send", "sendto", "sendmsg",
    "accept", "accept4", "connect",
    "wait", "waitid", "pause", "flock",
    "sleep", "usleep", "nanosleep",
    "sleep_for", "sleep_until",
}

# (class, method) pairs that park the caller indefinitely.
BLOCKING_METHODS = {
    ("CondVar", "Wait"),
    ("condition_variable", "wait"),
    ("NamedMutex", "Lock"),
    ("NamedMutex", "lock"),
}

# Method names blocking regardless of receiver type (receiver resolution
# is best-effort; these names are unambiguous in this tree).
BLOCKING_METHOD_NAMES = {"join"}

# Constructing one of these blocks in the constructor (RAII acquisition).
BLOCKING_CTORS = {"NamedMutexGuard"}

# Functions whose *contract* bounds the wait: traversal stops here instead
# of descending into their implementation (which legitimately uses poll/
# read internally under a deadline).
BOUNDED_CUTS = {
    ("CondVar", "WaitUntil"),
    ("PipeEnd", "WaitReadable"),
    ("PipeEnd", "WaitWritable"),
    ("PipeEnd", "Poll"),
    ("Mutex", "Lock"),
    ("Mutex", "lock"),
    ("Mutex", "TryLock"),
    ("Mutex", "try_lock"),
    ("NamedMutex", "TryLock"),
}
BOUNDED_CUT_NAMES = {"TryLock", "try_lock", "WaitUntil", "WaitReadable",
                     "WaitWritable"}


def _is_blocking_call(call, fn, model):
    """Returns a primitive label when `call` itself is an unbounded wait."""
    name = call.name
    if call.kind in ("free", "qualified"):
        if name == "ReadFrame":
            # ipc::ReadFrame(pipe) blocks forever; the two-argument overload
            # carries a deadline and is the sanctioned variant.
            return "ReadFrame(no timeout)" if call.nargs <= 1 else None
        if name == "waitpid":
            return (None if any("WNOHANG" in arg for arg in call.args)
                    else "waitpid")
        if name == "epoll_wait" or name == "epoll_pwait":
            return None  # timeout argument bounds it; -1 uses are the loop
        if name in BLOCKING_FREE:
            # Only count syscall-looking uses: bare or `::`/`std::`-qualified
            # with at least one argument (`poll()` on a zero-arg local
            # std::function is not poll(2)).
            if call.nargs >= 1 and (call.kind == "free" or call.quals in ((
                    "",), ("std",), ("std", "this_thread"))):
                return name
        if name in BLOCKING_CTORS:
            return name + " (RAII lock)"
        return None
    # Method call.
    if name in BLOCKING_METHOD_NAMES:
        return name
    recv_cls = model.resolve_receiver(fn, call.recv)
    if name == "ReadFrame":
        return "ReadFrame(no timeout)" if call.nargs <= 1 else None
    for cls, meth in BLOCKING_METHODS:
        if name != meth:
            continue
        if recv_cls is None:
            # Unresolved receiver: blocking only when every class defining
            # this method name is a blocking one (else assume the benign
            # overloads; the baseline catches what slips through).
            impl_classes = {f.cls for f in model.methods.get(name, [])}
            decl_classes = {c.name for infos in model.classes.values()
                            for c in infos if name in c.method_decls}
            classes = impl_classes | decl_classes
            if classes and all((c, name) in BLOCKING_METHODS
                               for c in classes):
                return f"{cls}::{meth}"
        elif recv_cls == cls:
            return f"{cls}::{meth}"
    return None


def _passes_unset(call, unset):
    """True when an argument of `call` names an unset deadline."""
    return any(arg & unset for arg in call.args)


def _unset_deadlines(call, callee, unset):
    """The callee's `timeout` parameters this call leaves unset: omitted
    (so at their wait-forever default) or filled from an unset one."""
    out = set()
    for i, param in enumerate(callee.param_names):
        if "timeout" not in param:
            continue
        if i >= call.nargs or (i < len(call.args) and call.args[i] & unset):
            out.add(param)
    return frozenset(out)


def _is_cut(call, fn, model, unset=frozenset()):
    name = call.name
    if _passes_unset(call, unset):
        return False  # the bound it hands on is itself "wait forever"
    if name in BOUNDED_CUT_NAMES:
        return True
    if name == "ReadFrame" and call.nargs >= 2:
        return True
    # The deadline-carrying transfer overloads; the shorter-arity forms of
    # the same names block and stay subject to traversal.
    if name in ("WriteAll", "ReadExact") and call.nargs >= 2:
        return True
    if name == "WriteFrame" and call.nargs >= 3:
        return True
    if call.kind == "method":
        recv_cls = model.resolve_receiver(fn, call.recv)
        if recv_cls is not None and (recv_cls, name) in BOUNDED_CUTS:
            return True
        if recv_cls is None and any(
                (c, name) in BOUNDED_CUTS
                for c in {f.cls for f in model.methods.get(name, [])}):
            return True
    return False


def _callees(call, fn, model):
    """Repo-level function definitions this call may land in."""
    if call.kind == "method":
        return model.method_candidates(call, fn)
    cands = model.functions.get(call.name, [])
    if call.kind == "free" and fn.cls:
        # Unqualified call inside a method body: an own-class (or inherited)
        # method shadows any same-named free function or foreign method.
        family = {fn.cls}
        stack = [fn.cls]
        while stack:
            info = model.class_info(stack.pop())
            for b in (info.bases if info else []):
                if b not in family:
                    family.add(b)
                    stack.append(b)
        own = [f for f in cands if f.cls in family]
        if own:
            return own
    # Free or qualified: all same-named definitions (namespaces are not
    # tracked precisely; names in this tree are distinctive enough).
    return [f for f in cands if f.cls is None] or cands


def run(model, roots=None):
    """Yields findings: dicts with id/file/line/message."""
    annotated = {f.qualname: f for f in model.annotated_functions(ANNOTATION)}
    findings = []
    for root in sorted(annotated.values(), key=lambda f: (f.path, f.line)):
        src = model.sources.get(root.path)
        if src is not None and src.allowed(CHECK, root.line):
            continue
        reported = set()
        # BFS so the reported chain is a shortest path to each primitive.
        # A state is a function plus the deadline parameters left unset on
        # the way in.
        queue = deque([(root, (), frozenset())])
        visited = {(root.qualname, frozenset())}
        while queue:
            fn, path, unset = queue.popleft()
            for call in fn.calls:
                label = _is_blocking_call(call, fn, model)
                if label is not None:
                    callsrc = model.sources.get(fn.path)
                    if callsrc is not None and callsrc.allowed(CHECK,
                                                              call.line):
                        continue
                    key = (root.qualname, label)
                    if key in reported:
                        continue
                    reported.add(key)
                    chain = " -> ".join(
                        q for q in path + (fn.qualname,)) or root.qualname
                    findings.append({
                        "check": CHECK,
                        "id": f"{CHECK}:{root.path}:{root.qualname}:{label}",
                        "file": root.path,
                        "line": root.line,
                        "message": (
                            f"{root.qualname} is AFS_NONBLOCKING but reaches "
                            f"blocking `{label}` via {chain} "
                            f"({fn.path}:{call.line})"),
                    })
                    continue
                if _is_cut(call, fn, model, unset):
                    continue
                for callee in _callees(call, fn, model):
                    state = (callee.qualname,
                             _unset_deadlines(call, callee, unset))
                    if state in visited:
                        continue
                    visited.add(state)
                    queue.append((callee, path + (fn.qualname,), state[1]))
    return findings

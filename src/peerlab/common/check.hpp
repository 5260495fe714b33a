#pragma once

// Invariant checking. PEERLAB_CHECK is always on (simulation correctness
// beats the nanoseconds saved); PEERLAB_DCHECK compiles out in NDEBUG
// builds. Failures throw InvariantError so tests can assert on them and
// long experiment sweeps fail loudly instead of corrupting statistics.

#include <stdexcept>
#include <string>

namespace peerlab {

class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Observer invoked with the formatted message just before a failed
/// PEERLAB_CHECK throws. The obs::trace flight recorder installs one so
/// a fired assertion dumps its postmortem before the stack unwinds.
/// Plain function pointer + state (no <functional>) keeps this header
/// featherweight. The slot is per thread and holds at most one
/// observer: concurrent repetitions are each confined to one thread,
/// so each sees only its own failures.
using CheckObserver = void (*)(void* state, const char* what);

namespace detail {
struct CheckHook {
  CheckObserver fn = nullptr;
  void* state = nullptr;
  bool firing = false;  // reentrancy guard: a check inside the observer must not recurse
};

inline CheckHook& check_hook() {
  static thread_local CheckHook hook;
  return hook;
}
}  // namespace detail

inline void set_check_observer(CheckObserver fn, void* state) noexcept {
  detail::check_hook() = {fn, state, false};
}

/// Clears the calling thread's observer only if `state` still owns the
/// slot, so a long-dead installer cannot evict its successor. Call it
/// on the thread that installed the observer.
inline void clear_check_observer(void* state) noexcept {
  auto& hook = detail::check_hook();
  if (hook.state == state) hook = {};
}

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file, int line,
                                      const std::string& message) {
  std::string what = "invariant violated: ";
  what += expr;
  what += " at ";
  what += file;
  what += ":";
  what += std::to_string(line);
  if (!message.empty()) {
    what += " (";
    what += message;
    what += ")";
  }
  auto& hook = check_hook();
  if (hook.fn != nullptr && !hook.firing) {
    hook.firing = true;
    hook.fn(hook.state, what.c_str());
    hook.firing = false;
  }
  throw InvariantError(what);
}
}  // namespace detail

}  // namespace peerlab

#define PEERLAB_CHECK(expr)                                              \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::peerlab::detail::check_failed(#expr, __FILE__, __LINE__, "");    \
    }                                                                    \
  } while (false)

#define PEERLAB_CHECK_MSG(expr, msg)                                     \
  do {                                                                   \
    if (!(expr)) {                                                       \
      ::peerlab::detail::check_failed(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                    \
  } while (false)

#ifdef NDEBUG
#define PEERLAB_DCHECK(expr) \
  do {                       \
  } while (false)
#else
#define PEERLAB_DCHECK(expr) PEERLAB_CHECK(expr)
#endif

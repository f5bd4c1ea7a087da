// Error handling primitives shared by every emdpa module.
//
// The simulators in this project model hardware with hard contracts (local
// store sizes, alignment rules, stream limits).  Violating such a contract is
// a programming error in the caller, and we surface it loudly via
// ContractViolation rather than silently producing garbage timing results.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace emdpa {

/// Structured context an error can carry about where in a run it happened.
/// The fields are filled incrementally as the exception unwinds: the thrower
/// knows the kernel, the simulation loop knows the step, the backend knows
/// its own name — each layer annotates what it knows and rethrows.  The
/// driver prints the assembled context on abort instead of a bare what().
struct ErrorContext {
  long step = -1;       ///< simulation step the failure surfaced at (-1 unknown)
  std::string kernel;   ///< force kernel driving the run, if any
  std::string backend;  ///< backend name, if the failure crossed a backend
  long long atoms = -1; ///< system size at the failure (-1 unknown)
  std::string detail;   ///< the quantity that breached a limit, and the limit

  bool empty() const {
    return step < 0 && kernel.empty() && backend.empty() && atoms < 0 &&
           detail.empty();
  }

  std::string to_string() const {
    std::string out;
    auto append = [&](const std::string& part) {
      if (!out.empty()) out += ", ";
      out += part;
    };
    if (step >= 0) append("step " + std::to_string(step));
    if (!kernel.empty()) append("kernel " + kernel);
    if (!backend.empty()) append("backend " + backend);
    if (atoms >= 0) append(std::to_string(atoms) + " atoms");
    if (!detail.empty()) append(detail);
    return out;
  }
};

/// Mixin giving an exception type an ErrorContext.  Retrieved from a caught
/// std::exception via dynamic_cast (see error_context() below), so callers
/// that only know std::exception still reach the context.
class HasErrorContext {
 public:
  ErrorContext& context() { return context_; }
  const ErrorContext& context() const { return context_; }

 protected:
  HasErrorContext() = default;
  explicit HasErrorContext(ErrorContext context) : context_(std::move(context)) {}
  ~HasErrorContext() = default;

 private:
  ErrorContext context_;
};

/// Thrown when a caller violates a documented precondition of a device model
/// (e.g. DMA of unaligned data, local-store overflow, reading a texture bound
/// as a shader output).  These correspond to things that would crash, hang or
/// corrupt memory on the real hardware.
class ContractViolation : public std::logic_error, public HasErrorContext {
 public:
  explicit ContractViolation(const std::string& what, ErrorContext context = {})
      : std::logic_error(what), HasErrorContext(std::move(context)) {}
};

/// Thrown when an operation fails for an environmental reason (I/O, parse
/// errors) rather than a caller bug.
class RuntimeFailure : public std::runtime_error, public HasErrorContext {
 public:
  explicit RuntimeFailure(const std::string& what, ErrorContext context = {})
      : std::runtime_error(what), HasErrorContext(std::move(context)) {}
};

/// Thrown by the numerical-health watchdog when a run's physics has gone bad
/// (non-finite state, runaway energy drift, displacement explosion).  A
/// distinct type so the driver can turn it into a checkpoint-then-abort with
/// its own exit code, or a graceful kernel downgrade under --degrade.
class NumericalFailure : public RuntimeFailure {
 public:
  explicit NumericalFailure(const std::string& what, ErrorContext context = {})
      : RuntimeFailure(what, std::move(context)) {}
};

/// Thrown when a job exhausts an operator-imposed wall-clock or slice
/// budget (see HealthMonitor::enforce_deadline).  A distinct type because
/// the batch scheduler must NOT spend retry budget on it: re-running a job
/// whose time allowance is already consumed cannot succeed, so the
/// scheduler quarantines it immediately.
class DeadlineExceeded : public RuntimeFailure {
 public:
  explicit DeadlineExceeded(const std::string& what, ErrorContext context = {})
      : RuntimeFailure(what, std::move(context)) {}
};

/// Thrown when a run stops cooperatively on an operator signal (SIGINT /
/// SIGTERM, see core/interrupt.h) after the state was checkpointed.  A
/// distinct type so the driver can exit with its own code: orchestrators
/// must be able to tell "interrupted but resumable" from a crash or a
/// numerical failure.
class Interrupted : public RuntimeFailure {
 public:
  Interrupted(const std::string& what, int signal, ErrorContext context = {})
      : RuntimeFailure(what, std::move(context)), signal_(signal) {}

  /// The signal number that triggered the stop (SIGINT, SIGTERM).
  int signal() const { return signal_; }

 private:
  int signal_;
};

/// The context attached to `e`, or nullptr when its dynamic type carries
/// none.  Works on any caught std::exception.
inline const ErrorContext* error_context(const std::exception& e) {
  const auto* contextual = dynamic_cast<const HasErrorContext*>(&e);
  if (contextual == nullptr || contextual->context().empty()) return nullptr;
  return &contextual->context();
}

namespace detail {
[[noreturn]] inline void contract_fail(const char* expr, const char* file, int line,
                                       const std::string& msg) {
  std::string full = std::string(file) + ":" + std::to_string(line) +
                     ": contract violated: (" + expr + ")";
  if (!msg.empty()) full += " — " + msg;
  throw ContractViolation(full);
}
}  // namespace detail

}  // namespace emdpa

/// Precondition check.  Always on (the checks guard simulator correctness and
/// are far off the hot paths; hot paths use EMDPA_ASSUME_AUDITED below).
#define EMDPA_REQUIRE(expr, msg)                                         \
  do {                                                                   \
    if (!(expr)) ::emdpa::detail::contract_fail(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)

/// Invariant check for internal consistency (same mechanics, different intent).
#define EMDPA_ENSURE(expr, msg) EMDPA_REQUIRE(expr, msg)

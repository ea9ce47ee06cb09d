// Run-time invariant checking. Simulation models are full of structural
// invariants ("a FIFO is never popped empty", "a B response always matches an
// outstanding AW"); violating one means the model itself is broken, so we
// throw instead of limping on with corrupted state (P.7: catch run-time
// errors early).
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace axihc {

/// Raised when a model invariant is violated, carrying the failed condition
/// and the source location; or when AXIHC_REQUIRE rejects user input,
/// carrying only its message.
class ModelError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {
[[noreturn]] inline void check_failed(const char* cond, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": check failed: " << cond;
  if (!msg.empty()) os << " — " << msg;
  throw ModelError(os.str());
}
}  // namespace detail

}  // namespace axihc

/// Always-on invariant check (models are not perf-critical enough to strip).
#define AXIHC_CHECK(cond)                                             \
  do {                                                                \
    if (!(cond))                                                      \
      ::axihc::detail::check_failed(#cond, __FILE__, __LINE__, {});   \
  } while (false)

/// Invariant check with an explanatory message (streamed into a string).
#define AXIHC_CHECK_MSG(cond, msg)                                    \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::ostringstream axihc_os_;                                   \
      axihc_os_ << msg;                                               \
      ::axihc::detail::check_failed(#cond, __FILE__, __LINE__,        \
                                    axihc_os_.str());                 \
    }                                                                 \
  } while (false)

/// Input check: rejects user input (an INI, a sweep or campaign spec) with
/// `msg` alone, which names the section and key. No condition or source
/// location: the fault is in the input, not in the model.
#define AXIHC_REQUIRE(cond, msg)                                      \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::ostringstream axihc_os_;                                   \
      axihc_os_ << msg;                                               \
      throw ::axihc::ModelError(axihc_os_.str());                     \
    }                                                                 \
  } while (false)

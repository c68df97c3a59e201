// Runtime invariant checking.
//
// AEC_CHECK is always on (input validation, API contract violations);
// AEC_DCHECK compiles away in NDEBUG builds (internal invariants on hot
// paths). Both throw aec::CheckError so library misuse is recoverable and
// testable, never UB.
#pragma once

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>

namespace aec {

/// Thrown when a library precondition or internal invariant is violated.
/// what() is the full diagnostic ("CHECK failed: <expr> at <file>:<line>
/// — <message>"), for logs; message() is the check's message alone, for
/// the user.
class CheckError : public std::logic_error {
 public:
  /// `message_pos` is where the caller's message starts within `what`.
  explicit CheckError(const std::string& what, std::size_t message_pos = 0)
      : std::logic_error(what), message_pos_(message_pos) {}

  /// The caller's message, or the whole what() for a check that gave none.
  const char* message() const noexcept { return what() + message_pos_; }

 private:
  std::size_t message_pos_;
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::ostringstream os;
  os << "CHECK failed: " << expr << " at " << file << ":" << line;
  if (msg.empty()) throw CheckError(os.str());
  os << " — ";
  const auto message_pos = static_cast<std::size_t>(os.tellp());
  os << msg;
  throw CheckError(os.str(), message_pos);
}
}  // namespace detail

}  // namespace aec

#define AEC_CHECK(expr)                                              \
  do {                                                               \
    if (!(expr))                                                     \
      ::aec::detail::check_failed(#expr, __FILE__, __LINE__, "");    \
  } while (0)

#define AEC_CHECK_MSG(expr, msg)                                     \
  do {                                                               \
    if (!(expr)) {                                                   \
      std::ostringstream os_;                                        \
      os_ << msg;                                                    \
      ::aec::detail::check_failed(#expr, __FILE__, __LINE__,         \
                                  os_.str());                        \
    }                                                                \
  } while (0)

#ifdef NDEBUG
#define AEC_DCHECK(expr) \
  do {                   \
  } while (0)
#else
#define AEC_DCHECK(expr) AEC_CHECK(expr)
#endif

// Contract-checking macros in the spirit of the C++ Core Guidelines
// (I.6/I.8: Expects/Ensures). Violations throw ftm::ContractViolation so
// tests can assert on them; they are never compiled out because the
// simulator relies on them to enforce hardware capacity limits.
#pragma once

#include <stdexcept>
#include <string>

namespace ftm {

/// Thrown when a precondition, postcondition, or internal invariant fails.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error(what) {}
};

namespace detail {
/// Out of line and cold, so a check on a hot inlined path costs its
/// compare and branch only; the message building stays in ftm_util.
[[noreturn, gnu::cold]] void contract_fail(const char* kind,
                                           const char* expr,
                                           const char* file, int line);
}  // namespace detail

}  // namespace ftm

#define FTM_EXPECTS(cond)                                                \
  do {                                                                   \
    if (!(cond))                                                         \
      ::ftm::detail::contract_fail("Expects", #cond, __FILE__, __LINE__); \
  } while (0)

#define FTM_ENSURES(cond)                                                \
  do {                                                                   \
    if (!(cond))                                                         \
      ::ftm::detail::contract_fail("Ensures", #cond, __FILE__, __LINE__); \
  } while (0)

#define FTM_ASSERT(cond)                                                 \
  do {                                                                   \
    if (!(cond))                                                         \
      ::ftm::detail::contract_fail("Assert", #cond, __FILE__, __LINE__);  \
  } while (0)

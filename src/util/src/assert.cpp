#include "ftm/util/assert.hpp"

namespace ftm::detail {

void contract_fail(const char* kind, const char* expr, const char* file,
                   int line) {
  throw ContractViolation(std::string(kind) + " failed: " + expr + " at " +
                          file + ":" + std::to_string(line));
}

}  // namespace ftm::detail

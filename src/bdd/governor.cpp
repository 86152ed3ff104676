#include "bdd/governor.hpp"

namespace bddmin {

const char* limit_class_name(LimitClass c) noexcept {
  switch (c) {
    case LimitClass::kNodeLimit: return "node-limit";
    case LimitClass::kStepLimit: return "step-limit";
    case LimitClass::kDeadline: return "deadline";
    case LimitClass::kOutOfMemory: return "out-of-memory";
  }
  return "?";
}

NodeLimit::NodeLimit(std::size_t allocated, std::size_t limit)
    : ResourceExhausted(LimitClass::kNodeLimit,
                        "node quota exceeded: " + std::to_string(allocated) +
                            " allocated nodes >= limit " +
                            std::to_string(limit)) {}

StepLimit::StepLimit(std::uint64_t limit)
    : ResourceExhausted(LimitClass::kStepLimit,
                        "step budget exhausted: limit " +
                            std::to_string(limit) + " recursion steps") {}

Deadline::Deadline(double budget_seconds)
    : ResourceExhausted(LimitClass::kDeadline,
                        "deadline expired: budget " +
                            std::to_string(budget_seconds) + "s") {}

OutOfMemory::OutOfMemory(const char* site, std::size_t bytes)
    : ResourceExhausted(LimitClass::kOutOfMemory,
                        std::string("allocation failed: ") + site + " (" +
                            std::to_string(bytes) + " bytes requested)"),
      bytes_(bytes) {}

void ResourceGovernor::throw_step_limit() const {
  throw StepLimit(limits_.step_limit);
}

void ResourceGovernor::throw_deadline() const {
  throw Deadline(limits_.deadline_seconds);
}

}  // namespace bddmin

// Error types shared across all mphpc modules.
//
// Programming-contract violations (precondition/postcondition failures)
// throw `ContractViolation` so that tests can assert on misuse and so that
// release builds fail loudly instead of corrupting results; the macros
// that raise it live in common/contract.hpp. Recoverable conditions (bad
// input files, unknown names) use the dedicated exception types below or
// std::optional returns at the call site.
#pragma once

#include <stdexcept>
#include <string>

namespace mphpc {

/// Thrown when an MPHPC_EXPECTS / MPHPC_ENSURES / MPHPC_ASSERT contract
/// check fails (contract level "throw"; see common/contract.hpp).
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what) : std::logic_error(what) {}
};

/// Thrown on malformed external input (protocol lines, model stores, ...).
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a name lookup (system, application, counter, column) fails.
class LookupError : public std::runtime_error {
 public:
  explicit LookupError(const std::string& what) : std::runtime_error(what) {}
};

}  // namespace mphpc

// Oracle contracts: named, machine-checkable invariants of the engine.
//
// A contract takes a generated CaseSpec and independently re-derives
// something the engine promises — a differential oracle (FastMvm vs
// the faithful tile, analog vs digital MVM, closed form vs adaptive
// integration), a metamorphic property (permutation, monotonicity,
// zero-input), or an identity claim the documentation makes (batched ==
// single, probed == plain, thread-count independence, off-flag
// bit-identity).  The registry is the single source the fuzzer, the
// shrinker and the regression-corpus replayer all execute, so a
// reproducer found by one is meaningful to the others.
//
// Contracts never mutate the spec and derive all randomness from
// hash_seed(spec seed, per-contract stream), so a (spec, contract)
// pair has exactly one verdict.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "resipe/verify/generators.hpp"

namespace resipe::verify {

/// Verdict of one contract on one case.
struct ContractResult {
  bool pass = true;
  bool skipped = false;
  std::string detail;  ///< failure description / skip reason

  bool violated() const { return !pass && !skipped; }

  static ContractResult ok() { return {}; }
  static ContractResult skip(std::string why) {
    return {true, true, std::move(why)};
  }
  static ContractResult fail(std::string why) {
    return {false, false, std::move(why)};
  }
};

/// One named invariant.
struct Contract {
  std::string name;         ///< stable identifier (repro records key on it)
  std::string description;  ///< one-line statement of the invariant
  std::function<ContractResult(const CaseSpec&)> check;
};

/// All registered contracts, in a stable order.
const std::vector<Contract>& contract_registry();

/// Looks a contract up by name; nullptr when unknown.
const Contract* find_contract(const std::string& name);

// --- deliberate bug injection ------------------------------------------
//
// The harness's own acceptance test: an injected, realistic bug (the
// classic off-by-one dropping the last row from the FastMvm current
// sum, or a recovery exp one ulp off) must be caught by the contracts
// and shrunk to a tiny reproducer.  The injection lives inside the
// *contract's* model construction or its copy of the output —
// production code is never patched — and is off unless explicitly
// armed (resipe_fuzz --inject-bug / the self-test).

enum class InjectedBug {
  kNone = 0,
  /// fast_vs_tile builds its FastMvm with the last conductance row
  /// zeroed, emulating `for (r = 0; r < rows - 1; ...)` in the row sum.
  kFastMvmRowDrop,
  /// exp_libm_identity nudges one lane of its copy of the exp_libm
  /// output up by one ulp, the smallest error a non-bit-exact recovery
  /// exp could make.
  kExpLibmUlp,
};

/// Arms/disarms the injected bug (process-global; not thread-safe
/// against concurrent fuzz runs — arm it before run_fuzz).
void set_injected_bug(InjectedBug bug);
InjectedBug injected_bug();

}  // namespace resipe::verify
